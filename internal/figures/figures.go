package figures

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"wimc/internal/config"
	"wimc/internal/engine"
	"wimc/internal/exp"
	"wimc/internal/store"
)

// Table is one regenerated figure/table.
type Table struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// Text renders the table for terminals.
func (t *Table) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// WriteCSV writes the table as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Opts controls experiment fidelity and execution.
type Opts struct {
	// Quick shortens the simulation windows (for benchmarks and CI); full
	// runs use the paper's 10 000-cycle methodology.
	Quick bool
	// Seed overrides the default seed when nonzero.
	Seed uint64
	// Workers bounds the parallel experiment runner: 0 uses every core
	// (GOMAXPROCS), 1 runs sequentially. Tables are byte-identical either
	// way (internal/exp's determinism contract).
	Workers int
	// ScaleSizes overrides the system-size ladder of the scale sweep and
	// the channel sweep (chip counts; stacks scale along). Empty selects
	// the default ladder (4..64 chips, or a three-point ladder under
	// Quick).
	ScaleSizes []int
	// ChannelKs overrides the sub-channel ladder of the channel sweep.
	// Empty selects K ∈ {1, 2, 4, 8}.
	ChannelKs []int
	// ChannelAssign overrides the WI-to-sub-channel assignment of the
	// channel sweep. Empty selects spatial reuse.
	ChannelAssign config.ChannelAssignment
	// Policies overrides the arbitration-policy ladder of the policy
	// sweep. Empty selects all four policies (rotate first).
	Policies []config.MACPolicy
	// Shards splits every simulation tick across this many worker
	// shards (config.EngineShards). 0 keeps the serial engine. Results
	// are byte-identical at every shard count, so this composes freely
	// with Workers (run-level parallelism).
	Shards int
	// Store, when set, funnels every run through the content-addressed
	// result cache: points whose Results exist are served from disk and
	// fresh Results are stored as they complete, so regenerating a figure
	// after an interrupted or earlier run recomputes only what is missing.
	// Cached and uncached tables are byte-identical (the cache stores the
	// exact Result and its key covers every Result-determining input).
	Store *store.Store
	// EveryCycle disables the engine's event-horizon fast-forward for
	// every run of the figure (the benchmark reference; tables are
	// byte-identical either way). It bypasses Store: the cache key does
	// not cover the execution mode, and the mode's only observable
	// difference is the idle_cycles_skipped telemetry.
	EveryCycle bool
}

func (o Opts) apply(cfg *config.Config) {
	if o.Quick {
		cfg.WarmupCycles = 300
		cfg.MeasureCycles = 2700
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	if o.Shards != 0 {
		cfg.EngineShards = o.Shards
	}
}

// applyApp lengthens windows for application traffic, whose phase dwell
// times are thousands of cycles.
func (o Opts) applyApp(cfg *config.Config) {
	cfg.WarmupCycles = 2000
	cfg.MeasureCycles = 20000
	if o.Quick {
		cfg.WarmupCycles = 500
		cfg.MeasureCycles = 5000
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	if o.Shards != 0 {
		cfg.EngineShards = o.Shards
	}
}

func xcym(chips int, arch config.Architecture, o Opts) config.Config {
	cfg := config.MustXCYM(chips, 4, arch)
	o.apply(&cfg)
	return cfg
}

// runBatch executes independent runs through the parallel experiment
// runner, preserving input order (every generator funnels through here).
// With Opts.Store set the batch goes through the result cache instead;
// either way the output is byte-identical.
func runBatch(o Opts, ps []engine.Params) ([]*engine.Result, error) {
	if o.EveryCycle {
		for i := range ps {
			ps[i].EveryCycle = true
		}
	} else if o.Store != nil {
		rs, _, err := store.RunParams(o.Store, o.Workers, ps, nil)
		return rs, err
	}
	return exp.Run(o.Workers, ps)
}

// saturation is the maximum-load uniform workload of the Fig. 2/4/5
// methodology.
func saturation(cfg config.Config, mem float64) engine.Params {
	return engine.Params{
		Cfg: cfg,
		Traffic: engine.TrafficSpec{
			Kind:        engine.TrafficUniform,
			Rate:        1.0,
			MemFraction: mem,
		},
	}
}

// uniform is a uniform-random workload at the given load.
func uniform(cfg config.Config, rate, mem float64) engine.Params {
	return engine.Params{
		Cfg: cfg,
		Traffic: engine.TrafficSpec{
			Kind:        engine.TrafficUniform,
			Rate:        rate,
			MemFraction: mem,
		},
	}
}

func f(format string, v ...any) string { return fmt.Sprintf(format, v...) }

// gainPct returns 100*(a-b)/b: the relative increase of a over baseline b.
func gainPct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * (a - b) / b
}

// reductionPct returns 100*(base-sys)/base: the paper's "% gain" for
// metrics where lower is better (packet energy, packet latency).
func reductionPct(base, sys float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (base - sys) / base
}

// Experiments lists every experiment ID in run order: the paper's five
// figures, five ablations of the model's design choices (MAC, channel
// model, routing, sleepy transceivers, WI density), and seven extension
// experiments (hybrid architecture, memory read round trips, the
// large-system scale sweep, the sub-channel/spatial-reuse sweep, the MAC
// arbitration-policy sweep, the hybrid route-selection sweep, and the
// fault-injection resilience sweep).
func Experiments() []string {
	return []string{"fig2", "fig3", "fig4", "fig5", "fig6",
		"mac", "channel", "routing", "sleep", "density",
		"hybrid", "readrt", "scale", "channels", "policies", "hybridsweep",
		"faults"}
}

// Run executes one experiment by ID.
func Run(id string, o Opts) (*Table, error) {
	switch id {
	case "fig2":
		return Fig2(o)
	case "fig3":
		return Fig3(o)
	case "fig4":
		return Fig4(o)
	case "fig5":
		return Fig5(o)
	case "fig6":
		return Fig6(o)
	case "mac":
		return AblationMAC(o)
	case "channel":
		return AblationChannel(o)
	case "routing":
		return AblationRouting(o)
	case "sleep":
		return AblationSleep(o)
	case "density":
		return AblationDensity(o)
	case "hybrid":
		return ExtensionHybrid(o)
	case "readrt":
		return ExtensionReadRoundTrip(o)
	case "scale":
		return ScaleSweep(o)
	case "channels":
		return ChannelSweep(o)
	case "policies":
		return PolicySweep(o)
	case "hybridsweep":
		return HybridSweep(o)
	case "faults":
		return FaultSweep(o)
	default:
		return nil, fmt.Errorf("figures: unknown experiment %q (have %v)", id, Experiments())
	}
}
