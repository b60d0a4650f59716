package traffic

import (
	"fmt"
	"sort"

	"wimc/internal/sim"
)

// PhaseSpec is one state of an application's Markov phase model.
type PhaseSpec struct {
	Name       string
	RateScale  float64 // multiplies the app's base injection rate
	MemScale   float64 // multiplies the app's memory fraction
	MeanCycles float64 // geometric dwell time in this phase
	Barrier    bool    // barrier phase: short control packets to the master core
}

// AppProfile parameterizes one application's traffic model. The profiles
// substitute SynFull traces (paper §IV.D): each application is a cyclic
// Markov chain of compute / communication / barrier phases with app-
// specific injection rate, memory intensity, on-chip locality, and a
// cache-coherence-like mix of short control and long data messages.
// Rates and intensities are qualitative rankings drawn from published
// PARSEC/SPLASH-2 network characterizations (SynFull, Netrace, GARNET
// studies): e.g. canneal and radix are memory-hungry and bursty while
// blackscholes and swaptions barely use the network.
type AppProfile struct {
	Name         string
	Suite        string
	BaseRate     float64 // packets/core/cycle during communication phases
	MemFraction  float64 // probability a packet is a memory access
	LocalBias    float64 // probability an inter-core packet stays on-chip
	DataFraction float64 // fraction of packets carrying cache-line data
	CtrlFlits    int     // coherence control message size
	DataFlits    int     // data message size
	Phases       []PhaseSpec
}

// threePhases builds the standard compute/comm/barrier cycle.
func threePhases(computeLen, commLen, barrierLen float64) []PhaseSpec {
	return []PhaseSpec{
		{Name: "compute", RateScale: 0.15, MemScale: 1.2, MeanCycles: computeLen},
		{Name: "comm", RateScale: 1.0, MemScale: 1.0, MeanCycles: commLen},
		{Name: "barrier", RateScale: 0.6, MemScale: 0.2, MeanCycles: barrierLen, Barrier: true},
	}
}

// Apps returns the built-in application profiles keyed by name.
func Apps() map[string]AppProfile {
	list := []AppProfile{
		{Name: "blackscholes", Suite: "PARSEC", BaseRate: 0.0004, MemFraction: 0.30,
			LocalBias: 0.70, DataFraction: 0.45, CtrlFlits: 8, DataFlits: 64,
			Phases: threePhases(2200, 700, 120)},
		{Name: "bodytrack", Suite: "PARSEC", BaseRate: 0.0010, MemFraction: 0.35,
			LocalBias: 0.55, DataFraction: 0.50, CtrlFlits: 8, DataFlits: 64,
			Phases: threePhases(1500, 900, 150)},
		{Name: "canneal", Suite: "PARSEC", BaseRate: 0.0020, MemFraction: 0.50,
			LocalBias: 0.30, DataFraction: 0.60, CtrlFlits: 8, DataFlits: 64,
			Phases: threePhases(700, 1300, 100)},
		{Name: "dedup", Suite: "PARSEC", BaseRate: 0.0024, MemFraction: 0.30,
			LocalBias: 0.45, DataFraction: 0.55, CtrlFlits: 8, DataFlits: 64,
			Phases: threePhases(900, 1100, 140)},
		{Name: "fluidanimate", Suite: "PARSEC", BaseRate: 0.0014, MemFraction: 0.25,
			LocalBias: 0.75, DataFraction: 0.50, CtrlFlits: 8, DataFlits: 64,
			Phases: threePhases(1200, 1000, 180)},
		{Name: "swaptions", Suite: "PARSEC", BaseRate: 0.0005, MemFraction: 0.20,
			LocalBias: 0.65, DataFraction: 0.40, CtrlFlits: 8, DataFlits: 64,
			Phases: threePhases(2500, 600, 100)},
		{Name: "barnes", Suite: "SPLASH-2", BaseRate: 0.0015, MemFraction: 0.30,
			LocalBias: 0.50, DataFraction: 0.55, CtrlFlits: 8, DataFlits: 64,
			Phases: threePhases(1100, 1000, 200)},
		{Name: "fft", Suite: "SPLASH-2", BaseRate: 0.0020, MemFraction: 0.40,
			LocalBias: 0.25, DataFraction: 0.65, CtrlFlits: 8, DataFlits: 64,
			Phases: threePhases(600, 1200, 150)},
		{Name: "lu", Suite: "SPLASH-2", BaseRate: 0.0014, MemFraction: 0.35,
			LocalBias: 0.60, DataFraction: 0.55, CtrlFlits: 8, DataFlits: 64,
			Phases: threePhases(1000, 1000, 160)},
		{Name: "radix", Suite: "SPLASH-2", BaseRate: 0.0025, MemFraction: 0.45,
			LocalBias: 0.20, DataFraction: 0.65, CtrlFlits: 8, DataFlits: 64,
			Phases: threePhases(500, 1400, 120)},
		{Name: "water", Suite: "SPLASH-2", BaseRate: 0.0007, MemFraction: 0.25,
			LocalBias: 0.70, DataFraction: 0.45, CtrlFlits: 8, DataFlits: 64,
			Phases: threePhases(1800, 800, 140)},
		// Phased AI-accelerator collective (arXiv:2501.17567 shape): dense
		// cross-chip bursts separated by long provably-silent compute and
		// barrier-wait phases (RateScale 0 — no packets AND no RNG draws),
		// which is the traffic the engine's event-horizon fast-forward
		// skips over.
		{Name: "collective", Suite: "AI", BaseRate: 0.004, MemFraction: 0.10,
			LocalBias: 0.10, DataFraction: 0.90, CtrlFlits: 8, DataFlits: 64,
			Phases: []PhaseSpec{
				{Name: "compute", RateScale: 0, MemScale: 0, MeanCycles: 12000},
				{Name: "exchange", RateScale: 1.0, MemScale: 1.0, MeanCycles: 600},
				{Name: "wait", RateScale: 0, MemScale: 0, MeanCycles: 1500, Barrier: true},
			}},
	}
	m := make(map[string]AppProfile, len(list))
	for _, a := range list {
		m[a.Name] = a
	}
	return m
}

// AppNames returns the profile names in sorted order.
func AppNames() []string {
	apps := Apps()
	names := make([]string, 0, len(apps))
	for n := range apps {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// App is the application-specific traffic source: one thread of the
// application per chip (paper §IV.D mapping), DRAM stacks shared among
// threads, with a global cyclic phase machine.
type App struct {
	profile AppProfile
	world   World
	rng     *sim.Rand

	phase     int
	nextShift sim.Cycle
}

// NewApp constructs an application source from a built-in profile name.
func NewApp(name string, w World, rng *sim.Rand) (*App, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	p, ok := Apps()[name]
	if !ok {
		return nil, fmt.Errorf("traffic: unknown application %q (have %v)", name, AppNames())
	}
	if len(w.MemChannels) == 0 {
		return nil, fmt.Errorf("traffic: application traffic requires memory channels")
	}
	if len(w.Cores) < 2 {
		return nil, fmt.Errorf("traffic: application traffic addresses other cores, but the world has one core")
	}
	a := &App{profile: p, world: w, rng: rng}
	a.scheduleShift(0)
	return a, nil
}

// Name implements Source.
func (a *App) Name() string { return a.profile.Name }

func (a *App) scheduleShift(now sim.Cycle) {
	ph := a.profile.Phases[a.phase]
	// Geometric dwell with the configured mean.
	d := 1 + int(a.rng.ExpFloat64()*ph.MeanCycles)
	a.nextShift = now + sim.Cycle(d)
}

// Generate implements Source. The phase machine advances first, once per
// cycle (as the poll of core 0 did), and a silent phase returns before any
// core draws.
func (a *App) Generate(now sim.Cycle, room []bool, out []Gen) ([]Gen, int) {
	if now >= a.nextShift {
		a.phase = (a.phase + 1) % len(a.profile.Phases)
		a.scheduleShift(now)
	}
	ph := a.profile.Phases[a.phase]
	rate := a.profile.BaseRate * ph.RateScale
	if rate == 0 {
		// Provably silent phase: no packet and, crucially, no RNG draw —
		// this is what lets NextEventCycle promise the phase boundary as a
		// skip horizon without perturbing the random stream.
		return out, 0
	}
	n := 0
	for core, open := range room {
		g, fired := a.draw(core, ph, rate)
		if !fired {
			continue
		}
		if open {
			g.Core, g.Seq = core, n
			out = append(out, g)
		}
		n++
	}
	return out, n
}

// draw makes one core's draws for a cycle of phase ph at injection rate
// rate and returns its packet, if it generates one.
func (a *App) draw(core int, ph PhaseSpec, rate float64) (Gen, bool) {
	if a.rng.Float64() >= rate {
		return Gen{}, false
	}

	if ph.Barrier {
		// Threads synchronize through the master core with short control
		// messages.
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

	// Inter-core coherence traffic: LocalBias stays on-chip.
	myChip := a.world.ChipOfCore[core]
	if a.world.Chips > 1 && a.rng.Float64() >= a.profile.LocalBias {
		// Remote sharer on another chip.
		for tries := 0; tries < 16; tries++ {
			d := a.rng.Intn(len(a.world.Cores))
			if d != core && a.world.ChipOfCore[d] != myChip {
				return Gen{Dst: a.world.Cores[d], Flits: flits}, true
			}
		}
	}
	// On-chip sharer.
	for tries := 0; tries < 16; tries++ {
		d := a.rng.Intn(len(a.world.Cores))
		if d != core && a.world.ChipOfCore[d] == myChip {
			return Gen{Dst: a.world.Cores[d], Flits: flits}, true
		}
	}
	// Single-core chip fallback: any other core.
	d := a.rng.Intn(len(a.world.Cores) - 1)
	if d >= core {
		d++
	}
	return Gen{Dst: a.world.Cores[d], Flits: flits}, true
}

// NextEventCycle implements Source. During a phase with a non-zero
// effective rate every poll draws from the RNG, so no cycle may be
// skipped. During a silent phase (effective rate exactly 0) Generate
// returns early without touching the RNG, and the phase machine cannot
// advance before a.nextShift — so the next cycle this source can act is
// the phase boundary itself.
func (a *App) NextEventCycle(now sim.Cycle) sim.Cycle {
	ph := a.profile.Phases[a.phase]
	if a.profile.BaseRate*ph.RateScale > 0 {
		return now + 1
	}
	if a.nextShift <= now {
		return now + 1 // boundary due: the very next poll advances the phase
	}
	return a.nextShift
}

var _ Source = (*App)(nil)
