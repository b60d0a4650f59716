package traffic

import (
	"math"
	"slices"
	"testing"

	"wimc/internal/sim"
)

func TestAppProfilesComplete(t *testing.T) {
	apps := Apps()
	if len(apps) < 10 {
		t.Fatalf("only %d application profiles", len(apps))
	}
	parsec, splash, ai := 0, 0, 0
	for name, a := range apps {
		if a.Name != name {
			t.Errorf("profile %q keyed as %q", a.Name, name)
		}
		switch a.Suite {
		case "PARSEC":
			parsec++
		case "SPLASH-2":
			splash++
		case "AI":
			ai++
		default:
			t.Errorf("%s: unknown suite %q", name, a.Suite)
		}
		if a.BaseRate <= 0 || a.BaseRate > 0.05 {
			t.Errorf("%s: base rate %v out of range", name, a.BaseRate)
		}
		if a.MemFraction <= 0 || a.MemFraction >= 1 {
			t.Errorf("%s: memory fraction %v", name, a.MemFraction)
		}
		if a.LocalBias < 0 || a.LocalBias > 1 {
			t.Errorf("%s: local bias %v", name, a.LocalBias)
		}
		if a.CtrlFlits <= 0 || a.DataFlits <= a.CtrlFlits {
			t.Errorf("%s: packet sizes %d/%d", name, a.CtrlFlits, a.DataFlits)
		}
		if len(a.Phases) < 2 {
			t.Errorf("%s: only %d phases", name, len(a.Phases))
		}
	}
	if parsec < 5 || splash < 4 || ai < 1 {
		t.Fatalf("suite split %d PARSEC / %d SPLASH-2 / %d AI", parsec, splash, ai)
	}
	// The collective profile exists specifically to exercise the event
	// horizon: it must carry at least one provably silent phase.
	coll, ok := apps["collective"]
	if !ok {
		t.Fatal("collective profile missing")
	}
	silent := 0
	for _, ph := range coll.Phases {
		if ph.RateScale == 0 {
			silent++
		}
	}
	if silent == 0 {
		t.Fatal("collective profile has no silent phase")
	}
}

func TestAppNamesSorted(t *testing.T) {
	names := AppNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

func TestNewAppUnknown(t *testing.T) {
	if _, err := NewApp("doom", testWorld(), sim.NewRand(1)); err == nil {
		t.Fatal("unknown application accepted")
	}
	noMem := testWorld()
	noMem.MemChannels = nil
	if _, err := NewApp("canneal", noMem, sim.NewRand(1)); err == nil {
		t.Fatal("application without memory channels accepted")
	}
}

func TestAppGeneratesMixedSizes(t *testing.T) {
	w := testWorld()
	a, err := NewApp("canneal", w, sim.NewRand(23))
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[int]int{}
	var memN, total int
	room := openRoom(w)
	var gens []Gen
	for now := sim.Cycle(0); now < 200000; now++ {
		gens, _ = a.Generate(now, room, gens[:0])
		for _, g := range gens {
			total++
			sizes[g.Flits]++
			if g.Mem {
				memN++
			}
		}
	}
	if total == 0 {
		t.Fatal("canneal generated nothing")
	}
	p := a.Profile()
	if sizes[p.CtrlFlits] == 0 || sizes[p.DataFlits] == 0 {
		t.Fatalf("sizes not mixed: %v", sizes)
	}
	memShare := float64(memN) / float64(total)
	// Phases modulate the memory share around the profile value.
	if math.Abs(memShare-p.MemFraction) > 0.25 {
		t.Fatalf("memory share %.2f far from profile %.2f", memShare, p.MemFraction)
	}
}

func TestAppPhasesModulateRate(t *testing.T) {
	w := testWorld()
	a, err := NewApp("fft", w, sim.NewRand(31))
	if err != nil {
		t.Fatal(err)
	}
	// Track per-window generation; the compute/comm alternation must make
	// windows differ substantially.
	const win = 2000
	var rates []float64
	count := 0
	room := openRoom(w)
	var gens []Gen
	for now := sim.Cycle(0); now < 40*win; now++ {
		var n int
		gens, n = a.Generate(now, room, gens[:0])
		count += n
		if (now+1)%win == 0 {
			rates = append(rates, float64(count))
			count = 0
		}
	}
	min, max := math.Inf(1), math.Inf(-1)
	for _, r := range rates {
		min = math.Min(min, r)
		max = math.Max(max, r)
	}
	if max < 2*min+1 {
		t.Fatalf("phases did not modulate traffic: windows min %.0f max %.0f", min, max)
	}
}

func TestAppBarrierTargetsMaster(t *testing.T) {
	w := testWorld()
	a, err := NewApp("barnes", w, sim.NewRand(41))
	if err != nil {
		t.Fatal(err)
	}
	sawBarrier := false
	room := openRoom(w)
	var gens []Gen
	for now := sim.Cycle(0); now < 300000 && !sawBarrier; now++ {
		gens, _ = a.Generate(now, room, gens[:0])
		for _, g := range gens {
			if a.profile.Phases[a.phase].Barrier {
				if g.Core == 0 {
					t.Fatal("master core generated barrier traffic")
				}
				if g.Dst != w.Cores[0] {
					t.Fatalf("barrier packet to %d, want core 0", g.Dst)
				}
				if g.Flits != a.profile.CtrlFlits {
					t.Fatalf("barrier packet %d flits", g.Flits)
				}
				sawBarrier = true
			}
		}
	}
	if !sawBarrier {
		t.Fatal("no barrier phase observed")
	}
}

func TestAppLocalBias(t *testing.T) {
	w := testWorld()
	a, err := NewApp("fluidanimate", w, sim.NewRand(53)) // strong locality
	if err != nil {
		t.Fatal(err)
	}
	local, remote := 0, 0
	room := openRoom(w)
	var gens []Gen
	for now := sim.Cycle(0); now < 400000; now++ {
		gens, _ = a.Generate(now, room, gens[:0])
		for _, g := range gens {
			if g.Mem {
				continue
			}
			c := g.Core
			if a.profile.Phases[a.phase].Barrier {
				continue
			}
			dc := -1
			for i, id := range w.Cores {
				if id == g.Dst {
					dc = i
				}
			}
			if w.ChipOfCore[dc] == w.ChipOfCore[c] {
				local++
			} else {
				remote++
			}
		}
	}
	if local+remote == 0 {
		t.Fatal("no inter-core traffic")
	}
	share := float64(local) / float64(local+remote)
	if math.Abs(share-a.profile.LocalBias) > 0.15 {
		t.Fatalf("local share %.2f, profile bias %.2f", share, a.profile.LocalBias)
	}
}

func TestAppDeterministic(t *testing.T) {
	w := testWorld()
	mk := func() *App {
		a, _ := NewApp("radix", w, sim.NewRand(61))
		return a
	}
	a, b := mk(), mk()
	room := openRoom(w)
	var ga, gb []Gen
	for now := sim.Cycle(0); now < 20000; now++ {
		var na, nb int
		ga, na = a.Generate(now, room, ga[:0])
		gb, nb = b.Generate(now, room, gb[:0])
		if na != nb || !slices.Equal(ga, gb) {
			t.Fatalf("app sources diverged at cycle %d", now)
		}
	}
}
