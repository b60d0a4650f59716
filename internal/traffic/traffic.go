// Package traffic generates workloads for the multichip simulator.
//
// Synthetic patterns implement the paper's §IV.B–C methodology: every core
// generates packets at a configured injection rate; each packet is a memory
// access with a preset probability, otherwise it is addressed uniformly to
// any other core in the entire system. Classic mesh stress patterns
// (hotspot, transpose, bit-complement) are included for wider coverage.
//
// Application traffic (§IV.D) substitutes SynFull traces with per-app
// Markov phase models; see app.go.
//
// # The per-cycle contract
//
// The engine polls a Source once per cycle through Generate, handing it one
// room flag per core: whether that core's NI source queue can take a
// packet. A source visits the cores in index order and makes, for each,
// exactly the draws of one per-core poll of its pattern, in the pattern's
// order. For Uniform and Hotspot that is the injection draw; for a core
// that fires, the memory draw (when the memory fraction is not 0); for a
// memory packet, the channel draw and the read draw (when reads are on);
// otherwise the destination draw and Hotspot's redirect draw. Each bounded
// draw includes Intn's rejection redraws. The permutation patterns make
// the injection draw only; App advances its phase machine once, before the
// first core, and makes no draw at all in a silent phase. Which draws a
// core makes never depends on its room flag: a core whose queue is full
// draws exactly as one with room and emits nothing, so the random stream,
// and with it every later packet, is the same whether or not the queues
// fill. Each emitted Gen carries its core and its ordinal among the
// packets generated this cycle, counting those of full cores, so the
// engine numbers packets as if each generated packet had been offered in
// core order.
package traffic

import (
	"fmt"

	"wimc/internal/sim"
)

// World describes the addressable endpoints, built from the topology.
type World struct {
	Cores       []sim.EndpointID
	MemChannels []sim.EndpointID
	ChipOfCore  []int // chip index per core (parallel to Cores)
	Chips       int
	// Global mesh coordinates per core (parallel to Cores), for
	// permutation patterns.
	CoreGX, CoreGY []int
	GlobalCols     int
	GlobalRows     int
}

// Validate checks the world shape.
func (w World) Validate() error {
	if len(w.Cores) == 0 {
		return fmt.Errorf("traffic: world has no cores")
	}
	if len(w.ChipOfCore) != len(w.Cores) {
		return fmt.Errorf("traffic: ChipOfCore length %d != cores %d", len(w.ChipOfCore), len(w.Cores))
	}
	return nil
}

// coreIndexAt returns the core index at global coordinates, or -1.
func (w World) coreIndexAt(gx, gy int) int {
	for i := range w.Cores {
		if w.CoreGX[i] == gx && w.CoreGY[i] == gy {
			return i
		}
	}
	return -1
}

// Gen is one generated packet request.
type Gen struct {
	Core  int // source core index (into World.Cores)
	Seq   int // ordinal among this cycle's generated packets, full cores' included
	Dst   sim.EndpointID
	Flits int
	Mem   bool // destination is a memory channel
	Read  bool // memory read: a data reply is expected
}

// Source generates traffic for cores. Implementations are deterministic
// functions of their seed.
type Source interface {
	// Generate polls every core once for cycle now, under the per-cycle
	// contract of the package comment. room holds one flag per core
	// (len(room) == len(World.Cores)). Generate appends to out, in core
	// order, the packets of the cores whose flag is set, and returns out
	// and the number of packets generated this cycle, those of cores
	// without room included.
	Generate(now sim.Cycle, room []bool, out []Gen) ([]Gen, int)
	// NextEventCycle returns a conservative lower bound on the next cycle
	// (strictly after now) at which polling this source could either emit a
	// packet or mutate source state (RNG draws included — a draw is state).
	// The engine may skip every cycle in (now, NextEventCycle(now)) without
	// polling and replay byte-identically. Memoryless random sources draw
	// from the RNG on every poll, so they must return now+1: byte-identity
	// is never sacrificed to probability. Phase-model sources may return
	// the next phase boundary while the current phase is provably silent.
	NextEventCycle(now sim.Cycle) sim.Cycle
	// Name identifies the pattern for reports.
	Name() string
}

// Uniform is the paper's synthetic pattern: Bernoulli injection at Rate
// packets/core/cycle; MemFraction of packets address a uniformly random
// DRAM channel, the rest a uniformly random other core anywhere in the
// system.
type Uniform struct {
	world    World
	mem      float64
	read     float64 // fraction of memory packets that are read requests
	flits    int
	reqFlits int
	rng      *sim.Rand

	// The draws in integer form (see sim.Threshold and sim.Bound).
	rateT, memT, readT sim.Threshold
	chans, others      sim.Bound // MemChannels; the other cores
}

// NewUniform constructs the uniform-random pattern.
func NewUniform(w World, rate, memFraction float64, flits int, rng *sim.Rand) (*Uniform, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if err := validRate(rate); err != nil {
		return nil, err
	}
	if memFraction < 0 || memFraction > 1 {
		return nil, fmt.Errorf("traffic: memory fraction must be in [0,1], got %v", memFraction)
	}
	if memFraction > 0 && len(w.MemChannels) == 0 {
		return nil, fmt.Errorf("traffic: memory fraction %v but no memory channels", memFraction)
	}
	if memFraction < 1 && len(w.Cores) < 2 {
		return nil, fmt.Errorf("traffic: memory fraction %v < 1 addresses other cores, but the world has one core", memFraction)
	}
	u := &Uniform{world: w, mem: memFraction, flits: flits, reqFlits: flits, rng: rng,
		rateT: sim.NewThreshold(rate), memT: sim.NewThreshold(memFraction)}
	if len(w.MemChannels) > 0 {
		u.chans = sim.NewBound(len(w.MemChannels))
	}
	if len(w.Cores) > 1 {
		u.others = sim.NewBound(len(w.Cores) - 1)
	}
	return u, nil
}

// SetReads makes readFraction of memory packets read requests of
// requestFlits flits (replies are generated by the memory system).
func (u *Uniform) SetReads(readFraction float64, requestFlits int) error {
	if readFraction < 0 || readFraction > 1 {
		return fmt.Errorf("traffic: read fraction must be in [0,1], got %v", readFraction)
	}
	if requestFlits < 1 {
		return fmt.Errorf("traffic: request flits must be >= 1, got %d", requestFlits)
	}
	u.read = readFraction
	u.readT = sim.NewThreshold(readFraction)
	u.reqFlits = requestFlits
	return nil
}

// Name implements Source.
func (u *Uniform) Name() string { return "uniform" }

// NextEventCycle implements Source. Bernoulli injection draws from the
// RNG every poll, so no cycle may be skipped.
func (u *Uniform) NextEventCycle(now sim.Cycle) sim.Cycle { return now + 1 }

// Generate implements Source.
func (u *Uniform) Generate(_ sim.Cycle, room []bool, out []Gen) ([]Gen, int) {
	return u.generate(room, out, -1, 0)
}

// generate is the Uniform per-cycle loop, shared with Hotspot: when hot is
// a core index, every packet of another core that addresses a core is
// redirected to hot with probability hotT, a draw made after its
// destination draw. It draws through a local sim.Stream (see there for the
// ok/From pattern), and a core without room only draws.
func (u *Uniform) generate(room []bool, out []Gen, hot int, hotT sim.Threshold) ([]Gen, int) {
	r := u.rng
	s := r.Stream()
	n := 0
	for core, open := range room {
		var fire, isMem, read, redirect, ok bool
		var dst int
		if fire, s, ok = s.Chance(u.rateT); !ok {
			fire, s = r.ChanceFrom(s, u.rateT)
		}
		if !fire {
			continue
		}
		n++
		if u.mem > 0 {
			if isMem, s, ok = s.Chance(u.memT); !ok {
				isMem, s = r.ChanceFrom(s, u.memT)
			}
		}
		if isMem {
			if dst, s, ok = s.Below(u.chans); !ok {
				dst, s = r.BelowFrom(s, u.chans)
			}
			if u.read > 0 {
				if read, s, ok = s.Chance(u.readT); !ok {
					read, s = r.ChanceFrom(s, u.readT)
				}
			}
			if open {
				g := Gen{Core: core, Seq: n - 1, Dst: u.world.MemChannels[dst], Flits: u.flits, Mem: true}
				if read {
					g.Read = true
					g.Flits = u.reqFlits
				}
				out = append(out, g)
			}
			continue
		}
		if dst, s, ok = s.Below(u.others); !ok {
			dst, s = r.BelowFrom(s, u.others)
		}
		if hot >= 0 && core != hot {
			if redirect, s, ok = s.Chance(hotT); !ok {
				redirect, s = r.ChanceFrom(s, hotT)
			}
		}
		if !open {
			continue
		}
		// Skip the source core without a branch: dst+1 when dst >= core.
		dst -= (core - 1 - dst) >> 63
		if redirect {
			dst = hot
		}
		out = append(out, Gen{Core: core, Seq: n - 1, Dst: u.world.Cores[dst], Flits: u.flits})
	}
	r.SetStream(s)
	return out, n
}

// Hotspot sends a fraction of traffic to one hot core, the rest uniformly.
type Hotspot struct {
	inner *Uniform
	hot   int
	hotT  sim.Threshold // the redirect probability
}

// NewHotspot constructs a hotspot pattern over the uniform base.
func NewHotspot(w World, rate, memFraction, hotFraction float64, hot, flits int, rng *sim.Rand) (*Hotspot, error) {
	if hot < 0 || hot >= len(w.Cores) {
		return nil, fmt.Errorf("traffic: hotspot core %d out of range", hot)
	}
	if hotFraction < 0 || hotFraction > 1 {
		return nil, fmt.Errorf("traffic: hotspot fraction must be in [0,1], got %v", hotFraction)
	}
	u, err := NewUniform(w, rate, memFraction, flits, rng)
	if err != nil {
		return nil, err
	}
	return &Hotspot{inner: u, hot: hot, hotT: sim.NewThreshold(hotFraction)}, nil
}

// Name implements Source.
func (h *Hotspot) Name() string { return "hotspot" }

// NextEventCycle implements Source (memoryless: every poll draws).
func (h *Hotspot) NextEventCycle(now sim.Cycle) sim.Cycle { return now + 1 }

// Generate implements Source.
func (h *Hotspot) Generate(_ sim.Cycle, room []bool, out []Gen) ([]Gen, int) {
	return h.inner.generate(room, out, h.hot, h.hotT)
}

// permutation is the shared body of the permutation patterns: each core
// fires with probability rate and addresses its fixed partner, and a core
// that is its own partner draws and generates nothing.
type permutation struct {
	cores []sim.EndpointID
	dst   []int // partner core per source core
	rateT sim.Threshold
	flits int
	rng   *sim.Rand
}

func newPermutation(w World, rate float64, flits int, rng *sim.Rand) (permutation, error) {
	if err := w.Validate(); err != nil {
		return permutation{}, err
	}
	if err := validRate(rate); err != nil {
		return permutation{}, err
	}
	return permutation{cores: w.Cores, dst: make([]int, len(w.Cores)),
		rateT: sim.NewThreshold(rate), flits: flits, rng: rng}, nil
}

// NextEventCycle implements Source (memoryless: every poll draws).
func (p *permutation) NextEventCycle(now sim.Cycle) sim.Cycle { return now + 1 }

// Generate implements Source.
func (p *permutation) Generate(_ sim.Cycle, room []bool, out []Gen) ([]Gen, int) {
	n := 0
	for core, open := range room {
		if !p.rng.Chance(p.rateT) {
			continue
		}
		d := p.dst[core]
		if d == core {
			continue
		}
		if open {
			out = append(out, Gen{Core: core, Seq: n, Dst: p.cores[d], Flits: p.flits})
		}
		n++
	}
	return out, n
}

// Transpose sends from (x, y) to (y, x) on the global core grid; diagonal
// cores stay silent.
type Transpose struct{ permutation }

// NewTranspose constructs the transpose permutation pattern.
func NewTranspose(w World, rate float64, flits int, rng *sim.Rand) (*Transpose, error) {
	p, err := newPermutation(w, rate, flits, rng)
	if err != nil {
		return nil, err
	}
	for i := range w.Cores {
		j := w.coreIndexAt(w.CoreGY[i], w.CoreGX[i])
		if j < 0 {
			return nil, fmt.Errorf("traffic: transpose needs a square global grid (%dx%d)",
				w.GlobalCols, w.GlobalRows)
		}
		p.dst[i] = j
	}
	return &Transpose{p}, nil
}

// Name implements Source.
func (t *Transpose) Name() string { return "transpose" }

// BitComplement sends from core i to core (n-1-i); the middle core of an
// odd count stays silent.
type BitComplement struct{ permutation }

// NewBitComplement constructs the bit-complement permutation pattern.
func NewBitComplement(w World, rate float64, flits int, rng *sim.Rand) (*BitComplement, error) {
	p, err := newPermutation(w, rate, flits, rng)
	if err != nil {
		return nil, err
	}
	for i := range p.dst {
		p.dst[i] = len(p.dst) - 1 - i
	}
	return &BitComplement{p}, nil
}

// Name implements Source.
func (b *BitComplement) Name() string { return "bit-complement" }

// validRate checks an injection rate.
func validRate(rate float64) error {
	if rate < 0 || rate > 1 {
		return fmt.Errorf("traffic: rate must be in [0,1], got %v", rate)
	}
	return nil
}

var (
	_ Source = (*Uniform)(nil)
	_ Source = (*Hotspot)(nil)
	_ Source = (*Transpose)(nil)
	_ Source = (*BitComplement)(nil)
)
