package figures

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"wimc/internal/config"
	"wimc/internal/engine"
	"wimc/internal/spec"
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

// applyApp lengthens the windows, after apply, for application traffic,
// whose phase dwell times are thousands of cycles.
func (o Opts) applyApp(cfg *config.Config) {
	cfg.WarmupCycles, cfg.MeasureCycles = 2000, 20000
	if o.Quick {
		cfg.WarmupCycles, cfg.MeasureCycles = 500, 5000
	}
}

// grid runs the spec a figure is made of: the default configuration and
// traffic as the base, then the axes, first axis outermost. Every point
// goes through store.RunSpec, so a figure is cached, keyed and expanded
// exactly like a spec file; a nil o.Store runs every point. Points and
// Results come back in expansion order.
func grid(o Opts, traffic engine.TrafficSpec, axes ...spec.Axis) ([]spec.Point, []*engine.Result, error) {
	s := spec.New("", config.Default(), traffic)
	s.Axes = axes
	pts, rs, _, err := store.RunSpec(o.Store, o.Workers, s, nil)
	return pts, rs, err
}

// preset returns the XCYM preset of chips chips and arch with
// DefaultStacks(chips) memory stacks and o's overrides.
func preset(o Opts, chips int, arch config.Architecture) (config.Config, error) {
	cfg, err := config.XCYM(chips, config.DefaultStacks(chips), arch)
	if err != nil {
		return cfg, err
	}
	o.apply(&cfg)
	return cfg, nil
}

// whole returns an axis whose points each carry a whole configuration.
// Wherever the architecture or the chip count varies, a point must carry
// the whole configuration: XCYM derives the name and clamps
// wireless_channels per preset, so a partial patch would run a different
// system under a different key.
func whole(name string, cfgs ...config.Config) spec.Axis {
	axis := spec.Axis{Name: name}
	for _, cfg := range cfgs {
		axis.Points = append(axis.Points, spec.ConfigPoint(cfg.Name, cfg))
	}
	return axis
}

// systems returns the whole-configuration "system" axis of every (chips,
// arch) preset, chip count outermost, each adjusted by adjust (if any).
func systems(o Opts, chips []int, archs []config.Architecture, adjust func(*config.Config)) (spec.Axis, error) {
	var cfgs []config.Config
	for _, n := range chips {
		for _, arch := range archs {
			cfg, err := preset(o, n, arch)
			if err != nil {
				return spec.Axis{}, err
			}
			if adjust != nil {
				adjust(&cfg)
			}
			cfgs = append(cfgs, cfg)
		}
	}
	return whole("system", cfgs...), nil
}

// fieldAxis returns an axis sweeping one field over values: point is
// spec.ConfigPoint for a configuration field, spec.TrafficPoint for a
// traffic field.
func fieldAxis[T any](point func(string, any) spec.AxisPoint, name string, values []T) spec.Axis {
	axis := spec.Axis{Name: name}
	for _, v := range values {
		axis.Points = append(axis.Points, point(f("%s=%v", name, v), map[string]any{name: v}))
	}
	return axis
}

// uniform is uniform random traffic at rate packets/core/cycle with
// memory share mem; rate 1.0 is the saturation load of the Fig. 2/4/5
// methodology.
func uniform(rate, mem float64) engine.TrafficSpec {
	return engine.TrafficSpec{Kind: engine.TrafficUniform, Rate: rate, MemFraction: mem}
}

// pjBit returns a point's packet energy per bit in pJ: the Result's mean
// packet energy over the point's packet size (the traffic's packet_flits,
// else the configuration's) in bits.
func pjBit(pt spec.Point, r *engine.Result) float64 {
	flits := pt.Traffic.PacketFlits
	if flits == 0 {
		flits = pt.Config.PacketFlits
	}
	bits := float64(flits * pt.Config.FlitBits)
	if bits == 0 {
		return 0
	}
	return r.AvgPacketEnergyNJ * 1000 / bits
}

// metric renders a point's cells in a size table (nil for none).
type metric func(pt spec.Point, r *engine.Result) []string

// bw renders the saturation bandwidth per core.
func bw(format string) metric {
	return func(_ spec.Point, r *engine.Result) []string {
		return []string{f(format, r.BandwidthPerCoreGbps)}
	}
}

// pjBitCell renders pjBit.
func pjBitCell(pt spec.Point, r *engine.Result) []string {
	return []string{f("%.1f", pjBit(pt, r))}
}

// sizeRows appends one row per system size to t, each size owning inner
// consecutive points: the "<chips>C<stacks>M" label and core count, then
// each metric over the size's points in order (metric outermost).
func sizeRows(t *Table, pts []spec.Point, rs []*engine.Result, inner int, metrics ...metric) {
	for i := 0; i < len(pts); i += inner {
		cfg := pts[i].Config
		row := []string{f("%dC%dM", cfg.Chips(), cfg.MemStacks), f("%d", cfg.Cores())}
		for _, m := range metrics {
			for j := i; j < i+inner; j++ {
				row = append(row, m(pts[j], rs[j])...)
			}
		}
		t.Rows = append(t.Rows, row)
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
