package traffic

import (
	"math"
	"math/rand"
	"testing"

	"wimc/internal/sim"
)

// The per-core reference sources. Each is the per-core poll its pattern
// had before sources were polled once per cycle — the same body, drawing
// from a math/rand generator directly — and refCycle replays the engine
// loop that drove it: every core in order, a packet numbered in generation
// order, and a full core's packet dropped after its draws. FuzzSourceCycle
// holds every Generate to these oracles.

type refSource interface {
	nextFor(now sim.Cycle, core int) (Gen, bool)
}

// refCycle polls ref for every core at cycle now, keeping the packets of
// the cores with room, and returns them with the generated count.
func refCycle(ref refSource, now sim.Cycle, room []bool) ([]Gen, int) {
	var out []Gen
	n := 0
	for core := range room {
		g, ok := ref.nextFor(now, core)
		if !ok {
			continue
		}
		if room[core] {
			g.Core, g.Seq = core, n
			out = append(out, g)
		}
		n++
	}
	return out, n
}

type refUniform struct {
	world    World
	rate     float64
	mem      float64
	read     float64
	flits    int
	reqFlits int
	rng      *rand.Rand
}

func (u *refUniform) nextFor(_ sim.Cycle, core int) (Gen, bool) {
	if u.rng.Float64() >= u.rate {
		return Gen{}, false
	}
	if u.mem > 0 && u.rng.Float64() < u.mem {
		ch := u.world.MemChannels[u.rng.Intn(len(u.world.MemChannels))]
		g := Gen{Dst: ch, Flits: u.flits, Mem: true}
		if u.read > 0 && u.rng.Float64() < u.read {
			g.Read = true
			g.Flits = u.reqFlits
		}
		return g, true
	}
	n := len(u.world.Cores)
	other := u.rng.Intn(n - 1)
	if other >= core {
		other++
	}
	return Gen{Dst: u.world.Cores[other], Flits: u.flits}, true
}

type refHotspot struct {
	inner    *refUniform
	hot      int
	fraction float64
}

func (h *refHotspot) nextFor(now sim.Cycle, core int) (Gen, bool) {
	g, ok := h.inner.nextFor(now, core)
	if !ok {
		return Gen{}, false
	}
	if !g.Mem && core != h.hot && h.inner.rng.Float64() < h.fraction {
		g.Dst = h.inner.world.Cores[h.hot]
	}
	return g, true
}

type refTranspose struct {
	world World
	rate  float64
	flits int
	rng   *rand.Rand
	dst   []int
}

func (t *refTranspose) nextFor(_ sim.Cycle, core int) (Gen, bool) {
	if t.rng.Float64() >= t.rate {
		return Gen{}, false
	}
	d := t.dst[core]
	if d == core {
		return Gen{}, false // diagonal cores stay silent under transpose
	}
	return Gen{Dst: t.world.Cores[d], Flits: t.flits}, true
}

type refBitComplement struct {
	world World
	rate  float64
	flits int
	rng   *rand.Rand
}

func (b *refBitComplement) nextFor(_ sim.Cycle, core int) (Gen, bool) {
	if b.rng.Float64() >= b.rate {
		return Gen{}, false
	}
	d := len(b.world.Cores) - 1 - core
	if d == core {
		return Gen{}, false
	}
	return Gen{Dst: b.world.Cores[d], Flits: b.flits}, true
}

type refApp struct {
	profile   AppProfile
	world     World
	rng       *rand.Rand
	phase     int
	nextShift sim.Cycle
}

func newRefApp(name string, w World, rng *rand.Rand) *refApp {
	a := &refApp{profile: Apps()[name], world: w, rng: rng}
	a.scheduleShift(0)
	return a
}

func (a *refApp) scheduleShift(now sim.Cycle) {
	ph := a.profile.Phases[a.phase]
	d := 1 + int(a.rng.ExpFloat64()*ph.MeanCycles)
	a.nextShift = now + sim.Cycle(d)
}

func (a *refApp) nextFor(now sim.Cycle, core int) (Gen, bool) {
	if core == 0 && now >= a.nextShift {
		a.phase = (a.phase + 1) % len(a.profile.Phases)
		a.scheduleShift(now)
	}
	ph := a.profile.Phases[a.phase]
	rate := a.profile.BaseRate * ph.RateScale
	if rate == 0 {
		return Gen{}, false
	}
	if a.rng.Float64() >= rate {
		return Gen{}, false
	}

	if ph.Barrier {
		if core == 0 {
			return Gen{}, false
		}
		return Gen{Dst: a.world.Cores[0], Flits: a.profile.CtrlFlits}, true
	}

	flits := a.profile.CtrlFlits
	if a.rng.Float64() < a.profile.DataFraction {
		flits = a.profile.DataFlits
	}

	mem := a.profile.MemFraction * ph.MemScale
	if mem > 1 {
		mem = 1
	}
	if a.rng.Float64() < mem {
		ch := a.world.MemChannels[a.rng.Intn(len(a.world.MemChannels))]
		return Gen{Dst: ch, Flits: flits, Mem: true}, true
	}

	myChip := a.world.ChipOfCore[core]
	if a.world.Chips > 1 && a.rng.Float64() >= a.profile.LocalBias {
		for tries := 0; tries < 16; tries++ {
			d := a.rng.Intn(len(a.world.Cores))
			if d != core && a.world.ChipOfCore[d] != myChip {
				return Gen{Dst: a.world.Cores[d], Flits: flits}, true
			}
		}
	}
	for tries := 0; tries < 16; tries++ {
		d := a.rng.Intn(len(a.world.Cores))
		if d != core && a.world.ChipOfCore[d] == myChip {
			return Gen{Dst: a.world.Cores[d], Flits: flits}, true
		}
	}
	d := a.rng.Intn(len(a.world.Cores) - 1)
	if d >= core {
		d++
	}
	return Gen{Dst: a.world.Cores[d], Flits: flits}, true
}

// squareWorld is a side×side core grid split into up to 2×2 chips, with
// channels DRAM channels numbered after the cores.
func squareWorld(side, channels int) World {
	w := World{GlobalCols: side, GlobalRows: side, Chips: 1}
	if side > 1 {
		w.Chips = 4
	}
	for gy := 0; gy < side; gy++ {
		for gx := 0; gx < side; gx++ {
			chip := 0
			if side > 1 {
				chip = (2*gy/side)*2 + 2*gx/side
			}
			w.Cores = append(w.Cores, sim.EndpointID(len(w.Cores)))
			w.ChipOfCore = append(w.ChipOfCore, chip)
			w.CoreGX = append(w.CoreGX, gx)
			w.CoreGY = append(w.CoreGY, gy)
		}
	}
	for i := 0; i < channels; i++ {
		w.MemChannels = append(w.MemChannels, sim.EndpointID(side*side+i))
	}
	return w
}

// unitInterval folds a fuzzed float into [0, 1], keeping 0 and 1.
func unitInterval(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	x = math.Abs(x)
	if x > 1 {
		x = math.Mod(x, 1)
	}
	return x
}

// cycleCase builds a source under test and its per-core oracle over the
// same seed. kind picks the pattern (and, for App, the profile); it
// reports false when the constructor rejects the parameters.
func cycleCase(t *testing.T, seed uint64, kind uint8, rate, mem, read float64, w World) (Source, *sim.Rand, refSource, *rand.Rand, bool) {
	t.Helper()
	rng := sim.NewRand(seed)
	ref := rand.New(rand.NewSource(int64(seed)))
	const flits, reqFlits = 16, 4
	switch kind % 6 {
	case 0, 1:
		u, err := NewUniform(w, rate, mem, flits, rng)
		if err != nil {
			return nil, nil, nil, nil, false
		}
		ru := &refUniform{world: w, rate: rate, mem: mem, flits: flits, reqFlits: flits, rng: ref}
		if kind%6 == 1 {
			if err = u.SetReads(read, reqFlits); err != nil {
				t.Fatal(err)
			}
			ru.read, ru.reqFlits = read, reqFlits
		}
		return u, rng, ru, ref, true
	case 2:
		hot := int(kind/6) % len(w.Cores)
		h, err := NewHotspot(w, rate, mem, read, hot, flits, rng)
		if err != nil {
			return nil, nil, nil, nil, false
		}
		ru := &refUniform{world: w, rate: rate, mem: mem, flits: flits, reqFlits: flits, rng: ref}
		return h, rng, &refHotspot{inner: ru, hot: hot, fraction: read}, ref, true
	case 3:
		tr, err := NewTranspose(w, rate, flits, rng)
		if err != nil {
			return nil, nil, nil, nil, false
		}
		rt := &refTranspose{world: w, rate: rate, flits: flits, rng: ref, dst: make([]int, len(w.Cores))}
		for i := range w.Cores {
			rt.dst[i] = w.coreIndexAt(w.CoreGY[i], w.CoreGX[i])
		}
		return tr, rng, rt, ref, true
	case 4:
		b, err := NewBitComplement(w, rate, flits, rng)
		if err != nil {
			return nil, nil, nil, nil, false
		}
		return b, rng, &refBitComplement{world: w, rate: rate, flits: flits, rng: ref}, ref, true
	default:
		name := AppNames()[int(kind/6)%len(AppNames())]
		a, err := NewApp(name, w, rng)
		if err != nil {
			return nil, nil, nil, nil, false
		}
		return a, rng, newRefApp(name, w, ref), ref, true
	}
}

// FuzzSourceCycle holds each pattern's per-cycle Generate to its per-core
// oracle over 64 cycles: the same packets (core, ordinal, destination,
// flits, memory and read flags), the same generated count every cycle, and
// the same stream position afterwards. The room mask rotates by one core
// per cycle, so full and open cores interleave differently each cycle.
func FuzzSourceCycle(f *testing.F) {
	f.Add(uint64(1), uint8(0), 1.0, 0.2, 0.0, uint8(8), uint64(0xF0F0_0F0F_AAAA_5555), uint16(0))
	f.Add(uint64(2), uint8(1), 0.7, 0.5, 0.5, uint8(4), ^uint64(0), uint16(0))
	f.Add(uint64(3), uint8(2), 0.9, 0.1, 0.3, uint8(6), uint64(0x1234_5678_9ABC_DEF0), uint16(0))
	f.Add(uint64(4), uint8(3), 0.6, 0.0, 0.0, uint8(8), uint64(0xFFFF_0000_FFFF_0000), uint16(0))
	f.Add(uint64(5), uint8(4), 0.8, 0.0, 0.0, uint8(7), uint64(0x5555_5555_5555_5555), uint16(0))
	f.Add(uint64(6), uint8(5), 0.0, 0.0, 0.0, uint8(8), uint64(0xDEAD_BEEF_0BAD_F00D), uint16(3000))
	f.Add(uint64(7), uint8(11), 0.0, 0.0, 0.0, uint8(5), uint64(0), uint16(700))
	f.Add(uint64(8), uint8(0), 0.0002, 1.0, 0.0, uint8(1), ^uint64(0), uint16(0))
	f.Fuzz(func(t *testing.T, seed uint64, kind uint8, rate, mem, read float64, side uint8, mask uint64, start uint16) {
		w := squareWorld(1+int(side)%8, 1+int(seed%16))
		src, rng, ref, refRng, ok := cycleCase(t, seed, kind, unitInterval(rate), unitInterval(mem), unitInterval(read), w)
		if !ok {
			return
		}
		// App's phase clock starts at cycle 0; a later first poll makes its
		// first phase advance happen at once.
		first := sim.Cycle(start)
		room := make([]bool, len(w.Cores))
		var got []Gen
		for c := sim.Cycle(0); c < 64; c++ {
			for i := range room {
				room[i] = mask>>((uint(i)+uint(c))%64)&1 != 0
			}
			now := first + c
			var n int
			got, n = src.Generate(now, room, got[:0])
			want, wantN := refCycle(ref, now, room)
			if n != wantN || len(got) != len(want) {
				t.Fatalf("cycle %d: generated %d, emitted %d; oracle %d, %d", now, n, len(got), wantN, len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("cycle %d packet %d: %+v, oracle %+v", now, i, got[i], want[i])
				}
			}
		}
		if a, b := rng.Uint64(), refRng.Uint64(); a != b {
			t.Fatalf("stream position differs after 64 cycles: next draw %#x, oracle %#x", a, b)
		}
	})
}
