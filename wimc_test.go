package wimc_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"wimc"
)

func quickCfg(arch wimc.Architecture) wimc.Config {
	cfg := wimc.MustXCYM(4, 4, arch)
	cfg.WarmupCycles = 200
	cfg.MeasureCycles = 1800
	return cfg
}

func TestRunPublicAPI(t *testing.T) {
	res, err := wimc.Run(quickCfg(wimc.ArchWireless), wimc.TrafficSpec{
		Kind:        wimc.TrafficUniform,
		Rate:        0.002,
		MemFraction: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredPackets == 0 || res.AvgLatency <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
}

func TestSystemRunsOnce(t *testing.T) {
	sys, err := wimc.New(quickCfg(wimc.ArchInterposer), wimc.TrafficSpec{
		Kind: wimc.TrafficUniform, Rate: 0.001, MemFraction: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := quickCfg(wimc.ArchWireless)
	cfg.VCs = 0
	if _, err := wimc.New(cfg, wimc.TrafficSpec{Kind: wimc.TrafficUniform, Rate: 0.1}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestLoadSweep: a traffic rate axis keeps its order through Sweep, and
// latency rises with load.
func TestLoadSweep(t *testing.T) {
	loads := []float64{0.0005, 0.002}
	axis := wimc.Axis{Name: "load"}
	for _, l := range loads {
		axis.Points = append(axis.Points,
			wimc.TrafficAxisPoint(fmt.Sprintf("load=%v", l), map[string]any{"rate": l}))
	}
	s := wimc.NewSpec("load", quickCfg(wimc.ArchWireless),
		wimc.TrafficSpec{Kind: wimc.TrafficUniform, MemFraction: 0.2})
	s.Axes = []wimc.Axis{axis}
	pts, err := wimc.Sweep(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[0].Traffic.Rate != 0.0005 || pts[1].Traffic.Rate != 0.002 {
		t.Fatal("loads not preserved in order")
	}
	// Latency grows with load.
	if pts[1].Result.AvgLatency <= pts[0].Result.AvgLatency {
		t.Fatalf("latency not increasing: %.1f then %.1f",
			pts[0].Result.AvgLatency, pts[1].Result.AvgLatency)
	}
}

// TestSweepPerSpecWorkers: Workers is carried per spec, so two specs with
// different parallelism produce identical results without touching
// process-global state.
func TestSweepPerSpecWorkers(t *testing.T) {
	mk := func(workers int) *wimc.Spec {
		s := wimc.NewSpec("workers-test", quickCfg(wimc.ArchWireless),
			wimc.TrafficSpec{Kind: wimc.TrafficUniform, Rate: 0.002, MemFraction: 0.2})
		s.Axes = []wimc.Axis{{Name: "seed", Points: []wimc.AxisPoint{
			wimc.ConfigAxisPoint("seed=1", map[string]any{"seed": 1}),
			wimc.ConfigAxisPoint("seed=2", map[string]any{"seed": 2}),
			wimc.ConfigAxisPoint("seed=3", map[string]any{"seed": 3}),
		}}}
		s.Workers = workers
		return s
	}
	seq, err := wimc.Sweep(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := wimc.Sweep(mk(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i].Key != par[i].Key {
			t.Fatalf("point %d key differs across worker counts", i)
		}
		a, _ := json.Marshal(seq[i].Result)
		b, _ := json.Marshal(par[i].Result)
		if string(a) != string(b) {
			t.Fatalf("point %d differs across per-spec worker counts:\n%s\n%s", i, a, b)
		}
	}
}

func TestSaturateAndGains(t *testing.T) {
	tr := wimc.TrafficSpec{Kind: wimc.TrafficUniform, MemFraction: 0.2}
	rw, err := wimc.Saturate(quickCfg(wimc.ArchWireless), tr)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := wimc.Saturate(quickCfg(wimc.ArchInterposer), tr)
	if err != nil {
		t.Fatal(err)
	}
	g := wimc.GainOver(rw, ri)
	if g.System != rw || g.Baseline != ri {
		t.Fatal("gain references wrong")
	}
	wantBW := 100 * (rw.BandwidthPerCoreGbps - ri.BandwidthPerCoreGbps) / ri.BandwidthPerCoreGbps
	if diff := g.BandwidthPct - wantBW; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("bandwidth gain %v, want %v", g.BandwidthPct, wantBW)
	}
}

func TestGainOverZeroBaseline(t *testing.T) {
	a := &wimc.Result{}
	b := &wimc.Result{}
	g := wimc.GainOver(a, b)
	if g.BandwidthPct != 0 || g.PacketEnergyPct != 0 || g.LatencyPct != 0 {
		t.Fatal("zero baselines must not divide")
	}
}

func TestCompareAtSaturation(t *testing.T) {
	cfgs := []wimc.Config{quickCfg(wimc.ArchSubstrate), quickCfg(wimc.ArchWireless)}
	rs, err := wimc.CompareAtSaturation(cfgs, wimc.TrafficSpec{
		Kind: wimc.TrafficUniform, MemFraction: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("%d results", len(rs))
	}
}

func TestParseConfigPublic(t *testing.T) {
	cfg, err := wimc.ParseConfig([]byte(`{"seed": 42}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 42 {
		t.Fatal("seed not applied")
	}
	if _, err := wimc.ParseConfig([]byte(`{"arch":"x"}`)); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestXCYMPublic(t *testing.T) {
	if _, err := wimc.XCYM(0, 4, wimc.ArchWireless); err == nil {
		t.Fatal("XCYM(0) accepted")
	}
	// Chip counts outside the paper's presets generalize instead of failing.
	cfg3, err := wimc.XCYM(3, 4, wimc.ArchWireless)
	if err != nil {
		t.Fatalf("XCYM(3): %v", err)
	}
	if cfg3.Chips() != 3 || cfg3.Cores() != 48 {
		t.Fatalf("XCYM(3): %d chips / %d cores", cfg3.Chips(), cfg3.Cores())
	}
	cfg := wimc.Default()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunSeeds(t *testing.T) {
	st, err := wimc.RunSeeds(quickCfg(wimc.ArchWireless),
		wimc.TrafficSpec{Kind: wimc.TrafficUniform, Rate: 0.001, MemFraction: 0.2},
		wimc.Seeds(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs != 3 || len(st.Results) != 3 {
		t.Fatalf("runs %d / results %d", st.Runs, len(st.Results))
	}
	if st.MeanLatency <= 0 || st.MeanBandwidthPerCore <= 0 {
		t.Fatalf("means %v / %v", st.MeanLatency, st.MeanBandwidthPerCore)
	}
	if st.StdLatency < 0 {
		t.Fatal("negative std")
	}
	// Different seeds should not all be byte-identical.
	if st.Results[0].AvgLatency == st.Results[1].AvgLatency &&
		st.Results[1].AvgLatency == st.Results[2].AvgLatency {
		t.Fatal("all seeds produced identical latency")
	}
	if _, err := wimc.RunSeeds(quickCfg(wimc.ArchWireless), wimc.TrafficSpec{}, nil); err == nil {
		t.Fatal("empty seed list accepted")
	}
}

func TestHybridArchitecturePublic(t *testing.T) {
	res, err := wimc.Run(quickCfg(wimc.ArchHybrid), wimc.TrafficSpec{
		Kind: wimc.TrafficUniform, Rate: 0.002, MemFraction: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredPackets == 0 {
		t.Fatal("hybrid delivered nothing")
	}
}

func TestReadTransactionsPublic(t *testing.T) {
	res, err := wimc.Run(quickCfg(wimc.ArchWireless), wimc.TrafficSpec{
		Kind:            wimc.TrafficUniform,
		Rate:            0.001,
		MemFraction:     0.5,
		MemReadFraction: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MemReplies == 0 || res.AvgReadRoundTrip <= 0 {
		t.Fatalf("read stats: %d replies, %.1f rt", res.MemReplies, res.AvgReadRoundTrip)
	}
}
