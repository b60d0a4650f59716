package wimc_test

import (
	"encoding/json"
	"testing"

	"wimc"
)

// largeCfg returns a shortened-window large preset.
func largeCfg(chips int, arch wimc.Architecture) wimc.Config {
	cfg := wimc.MustXCYM(chips, wimc.DefaultStacks(chips), arch)
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 900
	return cfg
}

// TestLargePresetsRun: the generalized 16/32/64-chip presets validate,
// build (topology, parallel routing tables, deadlock verification) and carry traffic under the active-set scheduler in every
// architecture.
func TestLargePresetsRun(t *testing.T) {
	chipCounts := []int{16, 32, 64}
	if testing.Short() {
		chipCounts = []int{16}
	}
	for _, chips := range chipCounts {
		for _, arch := range []wimc.Architecture{
			wimc.ArchSubstrate, wimc.ArchInterposer, wimc.ArchWireless,
		} {
			cfg := largeCfg(chips, arch)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%dC/%s: %v", chips, arch, err)
			}
			res, err := wimc.Run(cfg, wimc.TrafficSpec{
				Kind: wimc.TrafficUniform, Rate: 0.002, MemFraction: 0.2,
			})
			if err != nil {
				t.Fatalf("%dC/%s: %v", chips, arch, err)
			}
			if res.DeliveredPackets == 0 {
				t.Fatalf("%dC/%s: no traffic delivered", chips, arch)
			}
			if res.Cores != chips*16 {
				t.Fatalf("%dC/%s: %d cores, want %d", chips, arch, res.Cores, chips*16)
			}
		}
	}
}

// TestLargePresetResultDeterminism: repeated runs of a 32-chip system — the
// whole pipeline from topology build to active-set simulation —
// produce byte-identical Result JSON.
func TestLargePresetResultDeterminism(t *testing.T) {
	cfg := largeCfg(32, wimc.ArchWireless)
	tr := wimc.TrafficSpec{Kind: wimc.TrafficUniform, Rate: 0.002, MemFraction: 0.2}
	var ref []byte
	for i := 0; i < 3; i++ {
		res, err := wimc.Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = b
		} else if string(ref) != string(b) {
			t.Fatalf("run %d diverged:\n%s\n%s", i, ref, b)
		}
	}
}

// TestScaleSweepPublicAPI drives a size × architecture sweep through the
// public Sweep, one whole-configuration axis point per system, and checks
// ordering and plausibility.
func TestScaleSweepPublicAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation runs")
	}
	want := []struct {
		chips int
		arch  wimc.Architecture
	}{
		{4, wimc.ArchInterposer}, {4, wimc.ArchWireless},
		{16, wimc.ArchInterposer}, {16, wimc.ArchWireless},
	}
	sys := wimc.Axis{Name: "system"}
	for _, w := range want {
		cfg := wimc.MustXCYM(w.chips, wimc.DefaultStacks(w.chips), w.arch)
		sys.Points = append(sys.Points, wimc.ConfigAxisPoint(cfg.Name, cfg))
	}
	s := wimc.NewSpec("scale", wimc.Default(),
		wimc.TrafficSpec{Kind: wimc.TrafficUniform, Rate: 1.0, MemFraction: 0.2})
	s.Axes = []wimc.Axis{sys}
	pts, err := wimc.Sweep(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("%d points, want 4", len(pts))
	}
	for i, p := range pts {
		if p.Config.Chips() != want[i].chips || p.Config.Arch != want[i].arch {
			t.Fatalf("point %d = %dC/%s, want %dC/%s", i, p.Config.Chips(), p.Config.Arch, want[i].chips, want[i].arch)
		}
		if p.Result == nil || p.Result.BandwidthPerCoreGbps <= 0 {
			t.Fatalf("point %d has no saturation bandwidth", i)
		}
	}
	if pts[2].Config.MemStacks != 16 {
		t.Fatalf("16C stacks = %d, want 16", pts[2].Config.MemStacks)
	}
}

// TestScaleSweepRejectsEmpty: a sweep axis with no points is an error, not
// an empty result.
func TestScaleSweepRejectsEmpty(t *testing.T) {
	s := wimc.NewSpec("empty", wimc.Default(), wimc.TrafficSpec{Kind: wimc.TrafficUniform, Rate: 1.0})
	s.Axes = []wimc.Axis{{Name: "system"}}
	if _, err := wimc.Sweep(s); err == nil {
		t.Fatal("empty axis accepted")
	}
}
