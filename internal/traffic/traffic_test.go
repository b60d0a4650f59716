package traffic

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"wimc/internal/sim"
)

// testWorld builds a 4-chip, 16-cores-per-chip world with 16 DRAM channels,
// mirroring the 4C4M layout.
func testWorld() World {
	w := World{Chips: 4, GlobalCols: 8, GlobalRows: 8}
	for gy := 0; gy < 8; gy++ {
		for gx := 0; gx < 8; gx++ {
			chip := (gy/4)*2 + gx/4
			w.Cores = append(w.Cores, sim.EndpointID(len(w.Cores)))
			w.ChipOfCore = append(w.ChipOfCore, chip)
			w.CoreGX = append(w.CoreGX, gx)
			w.CoreGY = append(w.CoreGY, gy)
		}
	}
	for i := 0; i < 16; i++ {
		w.MemChannels = append(w.MemChannels, sim.EndpointID(64+i))
	}
	return w
}

// openRoom returns room flags with every core's source queue open.
func openRoom(w World) []bool {
	room := make([]bool, len(w.Cores))
	for i := range room {
		room[i] = true
	}
	return room
}

// onlyRoom returns room flags with only core c's source queue open.
func onlyRoom(w World, c int) []bool {
	room := make([]bool, len(w.Cores))
	room[c] = true
	return room
}

func TestWorldValidate(t *testing.T) {
	if err := (World{}).Validate(); err == nil {
		t.Fatal("empty world accepted")
	}
	w := testWorld()
	w.ChipOfCore = w.ChipOfCore[:3]
	if err := w.Validate(); err == nil {
		t.Fatal("mismatched ChipOfCore accepted")
	}
	if err := testWorld().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUniformRateAndMix(t *testing.T) {
	w := testWorld()
	rng := sim.NewRand(11)
	u, err := NewUniform(w, 0.3, 0.25, 64, rng)
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 4000
	gen, mem := 0, 0
	room := openRoom(w)
	var gens []Gen
	for now := sim.Cycle(0); now < cycles; now++ {
		var n int
		gens, n = u.Generate(now, room, gens[:0])
		if n != len(gens) {
			t.Fatalf("generated %d packets but emitted %d with every queue open", n, len(gens))
		}
		for i, g := range gens {
			if g.Seq != i || (i > 0 && g.Core <= gens[i-1].Core) {
				t.Fatalf("packet %d: core %d, ordinal %d out of order", i, g.Core, g.Seq)
			}
			c := g.Core
			gen++
			if g.Mem {
				mem++
				found := false
				for _, ch := range w.MemChannels {
					if ch == g.Dst {
						found = true
					}
				}
				if !found {
					t.Fatalf("memory packet addressed %d: not a channel", g.Dst)
				}
			} else {
				if g.Dst == w.Cores[c] {
					t.Fatal("packet addressed to its own source")
				}
			}
			if g.Flits != 64 {
				t.Fatalf("flits = %d", g.Flits)
			}
		}
	}
	wantGen := 0.3 * cycles * 64
	if math.Abs(float64(gen)-wantGen)/wantGen > 0.03 {
		t.Fatalf("generated %d packets, want ≈%.0f", gen, wantGen)
	}
	gotMem := float64(mem) / float64(gen)
	if math.Abs(gotMem-0.25) > 0.02 {
		t.Fatalf("memory share %.3f, want 0.25", gotMem)
	}
}

func TestUniformDestinationSpread(t *testing.T) {
	// Non-memory destinations must cover every other core roughly evenly.
	w := testWorld()
	u, _ := NewUniform(w, 1.0, 0, 8, sim.NewRand(3))
	counts := make(map[sim.EndpointID]int)
	const draws = 30000
	room := onlyRoom(w, 0)
	var gens []Gen
	for i := 0; i < draws; i++ {
		var n int
		gens, n = u.Generate(sim.Cycle(i), room, gens[:0])
		if n != len(w.Cores) || len(gens) != 1 || gens[0].Core != 0 {
			t.Fatalf("rate-1 cycle generated %d and emitted %v; want every core, core 0 only", n, gens)
		}
		counts[gens[0].Dst]++
	}
	if len(counts) != 63 {
		t.Fatalf("covered %d destinations, want 63", len(counts))
	}
	want := float64(draws) / 63
	for d, n := range counts {
		if math.Abs(float64(n)-want) > want*0.35 {
			t.Fatalf("dest %d drawn %d times, want ≈%.0f", d, n, want)
		}
	}
}

func TestUniformValidation(t *testing.T) {
	w := testWorld()
	rng := sim.NewRand(1)
	if _, err := NewUniform(w, -0.1, 0, 8, rng); err == nil {
		t.Fatal("negative rate accepted")
	}
	if _, err := NewUniform(w, 2, 0, 8, rng); err == nil {
		t.Fatal("rate > 1 accepted")
	}
	if _, err := NewUniform(w, 0.1, 2, 8, rng); err == nil {
		t.Fatal("memory fraction > 1 accepted")
	}
	noMem := w
	noMem.MemChannels = nil
	if _, err := NewUniform(noMem, 0.1, 0.5, 8, rng); err == nil {
		t.Fatal("memory traffic without channels accepted")
	}
	if _, err := NewUniform(noMem, 0.1, 0, 8, rng); err != nil {
		t.Fatalf("memory-free world rejected: %v", err)
	}
}

func TestHotspotBias(t *testing.T) {
	w := testWorld()
	h, err := NewHotspot(w, 1.0, 0, 0.5, 7, 8, sim.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	hot := 0
	const draws = 20000
	room := onlyRoom(w, 3)
	var gens []Gen
	for i := 0; i < draws; i++ {
		gens, _ = h.Generate(sim.Cycle(i), room, gens[:0])
		if len(gens) != 1 {
			t.Fatal("skip at rate 1")
		}
		if gens[0].Dst == w.Cores[7] {
			hot++
		}
	}
	share := float64(hot) / draws
	// 50% redirected plus the uniform share of the remainder.
	if share < 0.45 || share < 0.5*0.9 {
		t.Fatalf("hotspot share %.3f too low", share)
	}
	if _, err := NewHotspot(w, 1, 0, 0.5, 99, 8, sim.NewRand(1)); err == nil {
		t.Fatal("out-of-range hotspot core accepted")
	}
	if _, err := NewHotspot(w, 1, 0, 1.5, 0, 8, sim.NewRand(1)); err == nil {
		t.Fatal("hotspot fraction > 1 accepted")
	}
}

func TestTransposePermutation(t *testing.T) {
	w := testWorld()
	tr, err := NewTranspose(w, 1.0, 8, sim.NewRand(9))
	if err != nil {
		t.Fatal(err)
	}
	gens, n := tr.Generate(0, openRoom(w), nil)
	if n != len(gens) || n != len(w.Cores)-8 {
		t.Fatalf("generated %d, emitted %d; want the %d off-diagonal cores", n, len(gens), len(w.Cores)-8)
	}
	byCore := map[int]Gen{}
	for _, g := range gens {
		byCore[g.Core] = g
	}
	for c := range w.Cores {
		g, ok := byCore[c]
		gx, gy := w.CoreGX[c], w.CoreGY[c]
		if gx == gy {
			if ok {
				t.Fatalf("diagonal core %d generated traffic", c)
			}
			continue
		}
		if !ok {
			t.Fatalf("core %d silent", c)
		}
		want := w.coreIndexAt(gy, gx)
		if g.Dst != w.Cores[want] {
			t.Fatalf("transpose of core %d = %d, want %d", c, g.Dst, want)
		}
	}
}

func TestBitComplement(t *testing.T) {
	w := testWorld()
	b, err := NewBitComplement(w, 1.0, 8, sim.NewRand(13))
	if err != nil {
		t.Fatal(err)
	}
	gens, n := b.Generate(0, openRoom(w), nil)
	if n != len(w.Cores) || len(gens) != n {
		t.Fatalf("generated %d, emitted %d at rate 1; want %d", n, len(gens), len(w.Cores))
	}
	for _, g := range gens {
		if want := w.Cores[len(w.Cores)-1-g.Core]; g.Dst != want {
			t.Fatalf("complement of %d = %v, want %v", g.Core, g.Dst, want)
		}
	}
}

func TestPermutationRateValidation(t *testing.T) {
	w := testWorld()
	for _, rate := range []float64{-2, -0.1, 1.5} {
		if _, err := NewTranspose(w, rate, 8, sim.NewRand(1)); err == nil {
			t.Errorf("transpose accepted rate %v", rate)
		}
		if _, err := NewBitComplement(w, rate, 8, sim.NewRand(1)); err == nil {
			t.Errorf("bit-complement accepted rate %v", rate)
		}
	}
}

// TestOneCoreWorld: a one-core world has no other core to address, so a
// pattern that can address one must refuse it at construction rather than
// panic on its first packet; patterns that never address another core run.
func TestOneCoreWorld(t *testing.T) {
	w := squareWorld(1, 4)
	rng := sim.NewRand(1)
	if _, err := NewUniform(w, 0.5, 0.5, 8, rng); err == nil {
		t.Error("uniform with core traffic accepted a one-core world")
	}
	if _, err := NewHotspot(w, 0.5, 0.2, 0.5, 0, 8, rng); err == nil {
		t.Error("hotspot with core traffic accepted a one-core world")
	}
	if _, err := NewApp("canneal", w, rng); err == nil {
		t.Error("application traffic accepted a one-core world")
	}
	u, err := NewUniform(w, 1, 1, 8, rng)
	if err != nil {
		t.Fatalf("memory-only uniform rejected a one-core world: %v", err)
	}
	tr, err := NewTranspose(w, 1, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBitComplement(w, 1, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Source{u, tr, b} {
		for now := sim.Cycle(0); now < 100; now++ {
			s.Generate(now, openRoom(w), nil)
		}
	}
}

func TestSourcesDeterministic(t *testing.T) {
	w := testWorld()
	mk := func() Source {
		s, _ := NewUniform(w, 0.2, 0.3, 16, sim.NewRand(21))
		return s
	}
	a, b := mk(), mk()
	room := openRoom(w)
	var ga, gb []Gen
	for now := sim.Cycle(0); now < 500; now++ {
		var na, nb int
		ga, na = a.Generate(now, room, ga[:0])
		gb, nb = b.Generate(now, room, gb[:0])
		if na != nb || !slices.Equal(ga, gb) {
			t.Fatalf("sources diverged at cycle %d", now)
		}
	}
}

// TestUniformNeverSelfAddresses is a property test over arbitrary room
// masks: at rate 1 every core generates, only the open ones emit, and no
// packet addresses its own source.
func TestUniformNeverSelfAddresses(t *testing.T) {
	w := testWorld()
	u, _ := NewUniform(w, 1.0, 0.2, 8, sim.NewRand(17))
	room := make([]bool, len(w.Cores))
	check := func(mask uint64) bool {
		open := 0
		for i := range room {
			room[i] = mask>>uint(i)&1 != 0
			if room[i] {
				open++
			}
		}
		gens, n := u.Generate(0, room, nil)
		if n != len(w.Cores) || len(gens) != open {
			return false
		}
		for _, g := range gens {
			if !room[g.Core] || (!g.Mem && g.Dst == w.Cores[g.Core]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestSourceNames(t *testing.T) {
	w := testWorld()
	rng := sim.NewRand(1)
	u, _ := NewUniform(w, 0.1, 0, 8, rng)
	h, _ := NewHotspot(w, 0.1, 0, 0.1, 0, 8, rng)
	tr, _ := NewTranspose(w, 0.1, 8, rng)
	b, _ := NewBitComplement(w, 0.1, 8, rng)
	for _, s := range []Source{u, h, tr, b} {
		if s.Name() == "" {
			t.Fatal("empty source name")
		}
	}
}
