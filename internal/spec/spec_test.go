package spec

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"wimc/internal/config"
	"wimc/internal/engine"
)

func baseSpec() *Spec {
	return New("test", config.Default(), engine.TrafficSpec{
		Kind: engine.TrafficUniform, Rate: 0.002, MemFraction: 0.2,
	})
}

func TestExpandNoAxesIsBasePoint(t *testing.T) {
	s := baseSpec()
	pts, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("%d points, want 1", len(pts))
	}
	if pts[0].Config.Name != config.Default().Name || pts[0].Config.Seed != config.Default().Seed {
		t.Fatalf("base point config mutated")
	}
	if len(pts[0].Key) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", pts[0].Key)
	}
}

func TestExpandGridOrderAndLabels(t *testing.T) {
	s := baseSpec()
	s.Axes = []Axis{
		{Name: "K", Points: []AxisPoint{
			ConfigPoint("K=1", map[string]any{"wireless_channels": 1}),
			ConfigPoint("K=2", map[string]any{"wireless_channels": 2}),
		}},
		{Name: "load", Points: []AxisPoint{
			TrafficPoint("lo", map[string]any{"rate": 0.001}),
			TrafficPoint("hi", map[string]any{"rate": 0.01}),
		}},
	}
	pts, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("%d points, want 4", len(pts))
	}
	// First axis outermost: (K=1,lo), (K=1,hi), (K=2,lo), (K=2,hi).
	wantK := []int{1, 1, 2, 2}
	wantRate := []float64{0.001, 0.01, 0.001, 0.01}
	wantLabels := []string{"K=1/lo", "K=1/hi", "K=2/lo", "K=2/hi"}
	for i, p := range pts {
		if p.Config.WirelessChannels != wantK[i] || p.Traffic.Rate != wantRate[i] {
			t.Fatalf("point %d = K%d rate %v, want K%d rate %v",
				i, p.Config.WirelessChannels, p.Traffic.Rate, wantK[i], wantRate[i])
		}
		if got := strings.Join(p.Labels, "/"); got != wantLabels[i] {
			t.Fatalf("point %d labels %q, want %q", i, got, wantLabels[i])
		}
		if p.Index != i {
			t.Fatalf("point %d carries index %d", i, p.Index)
		}
		// Untouched base fields survive patching.
		if p.Config.VCs != config.Default().VCs || p.Traffic.MemFraction != 0.2 {
			t.Fatalf("point %d lost base fields", i)
		}
	}
}

func TestExpandRejectsUnknownPatchField(t *testing.T) {
	s := baseSpec()
	s.Axes = []Axis{{Name: "oops", Points: []AxisPoint{
		ConfigPoint("typo", map[string]any{"wirelss_channels": 4}),
	}}}
	if _, err := s.Expand(); err == nil || !strings.Contains(err.Error(), "wirelss_channels") {
		t.Fatalf("typo'd patch field not rejected: %v", err)
	}
}

func TestExpandRejectsInvalidPoint(t *testing.T) {
	s := baseSpec()
	s.Axes = []Axis{{Name: "vcs", Points: []AxisPoint{
		ConfigPoint("vcs=0", map[string]any{"vcs": 0}),
	}}}
	if _, err := s.Expand(); err == nil || !strings.Contains(err.Error(), "vcs") {
		t.Fatalf("invalid point not rejected: %v", err)
	}
}

func TestExpandRejectsEmptyAxisAndOversizedGrid(t *testing.T) {
	s := baseSpec()
	s.Axes = []Axis{{Name: "empty"}}
	if _, err := s.Expand(); err == nil {
		t.Fatal("empty axis accepted")
	}
	s = baseSpec()
	two := []AxisPoint{ConfigPoint("a", map[string]any{}), ConfigPoint("b", map[string]any{})}
	for i := 0; i < 17; i++ { // 2^17 > MaxPoints
		s.Axes = append(s.Axes, Axis{Name: "bit", Points: two})
	}
	if _, err := s.Expand(); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversized grid accepted: %v", err)
	}
}

// TestExpandRejectsOverflowingGrid: a grid whose point count overflows
// int gets the MaxPoints error. With an unchecked product, 63 two-point
// axes wrapped to -2^63 and panicked in make, and 64 wrapped to 0 and
// expanded to no points with no error.
func TestExpandRejectsOverflowingGrid(t *testing.T) {
	for _, n := range []int{63, 64} {
		s, err := Parse([]byte(doublingAxes(n)))
		if err != nil {
			t.Fatal(err)
		}
		if got := s.NumPoints(); got <= MaxPoints {
			t.Errorf("%d two-point axes: NumPoints = %d, want > %d", n, got, MaxPoints)
		}
		if pts, err := s.Expand(); err == nil || !strings.Contains(err.Error(), "limit") {
			t.Errorf("%d two-point axes: expanded to %d points, err %v; want the limit error", n, len(pts), err)
		}
		if _, err := s.Hash(); err == nil {
			t.Errorf("%d two-point axes: Hash succeeded", n)
		}
	}
}

// doublingAxes returns a spec document with n axes of two no-op points.
func doublingAxes(n int) string {
	axis := `{"points": [{"patch": {}}, {"patch": {}}]}`
	return `{"axes": [` + strings.Repeat(axis+",", n-1) + axis + `]}`
}

// TestParseFieldOrderInsensitive pins half of the Hash contract: the same
// experiment written with JSON fields in any order hashes identically.
func TestParseFieldOrderInsensitive(t *testing.T) {
	a := []byte(`{
		"name": "order-a",
		"config": {"arch": "wireless", "chips_x": 2, "chips_y": 2, "seed": 7},
		"traffic": {"kind": "uniform", "rate": 0.002, "mem_fraction": 0.2},
		"axes": [{"name": "K", "points": [
			{"label": "K=1", "patch": {"config": {"wireless_channels": 1}}},
			{"label": "K=4", "patch": {"config": {"channel_mode": "exclusive", "channel_assignment": "static-partition", "wireless_channels": 4}}}
		]}]
	}`)
	b := []byte(`{
		"axes": [{"points": [
			{"patch": {"config": {"wireless_channels": 1}}, "label": "K=1"},
			{"patch": {"config": {"wireless_channels": 4, "channel_assignment": "static-partition", "channel_mode": "exclusive"}}, "label": "K=4"}
		], "name": "K"}],
		"traffic": {"mem_fraction": 0.2, "rate": 0.002, "kind": "uniform"},
		"config": {"seed": 7, "chips_y": 2, "chips_x": 2, "arch": "wireless"},
		"name": "order-b"
	}`)
	sa, err := Parse(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	ha, err := sa.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := sb.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("hash is field-order-sensitive: %s vs %s", ha, hb)
	}
}

// TestHashIgnoresExecutionKnobs: Workers, Name and labels are not part of
// the experiment identity.
func TestHashIgnoresExecutionKnobs(t *testing.T) {
	s := baseSpec()
	h1, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	s.Workers = 7
	s.Name = "renamed"
	h2, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("hash depends on execution knobs: %s vs %s", h1, h2)
	}
}

// TestPointKeyIgnoresEngineShards: Results are byte-identical at every
// shard count, so a point keys the same at engine_shards 0, 1, 2 and 4,
// and so does the spec holding it.
func TestPointKeyIgnoresEngineShards(t *testing.T) {
	s := baseSpec()
	tr := s.Traffic
	key0, err := PointKey(s.Config, tr)
	if err != nil {
		t.Fatal(err)
	}
	h0, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4} {
		s.Config.EngineShards = n
		key, err := PointKey(s.Config, tr)
		if err != nil {
			t.Fatal(err)
		}
		h, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if key != key0 || h != h0 {
			t.Errorf("engine_shards %d: key %s, hash %s; serial key %s, hash %s", n, key, h, key0, h0)
		}
	}
}

// TestHashSensitivity: any identity field — a config knob, the traffic,
// the seed — re-keys the experiment.
func TestHashSensitivity(t *testing.T) {
	s := baseSpec()
	h0, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	s2 := baseSpec()
	s2.Config.Seed = 99
	hSeed, err := s2.Hash()
	if err != nil {
		t.Fatal(err)
	}
	s3 := baseSpec()
	s3.Traffic.Rate = 0.003
	hRate, err := s3.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h0 == hSeed || h0 == hRate || hSeed == hRate {
		t.Fatalf("hash insensitive to identity fields: %s %s %s", h0, hSeed, hRate)
	}
}

// TestEngineVersionInvalidation pins the other half of the key contract:
// a version bump re-keys every point, so no cached Result survives a
// behavior-changing engine build.
func TestEngineVersionInvalidation(t *testing.T) {
	cfg := config.Default()
	tr := engine.TrafficSpec{Kind: engine.TrafficUniform, Rate: 0.002}
	cur, err := PointKey(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	same, err := PointKeyVersioned(cfg, tr, engine.Version)
	if err != nil {
		t.Fatal(err)
	}
	if cur != same {
		t.Fatalf("PointKey does not use engine.Version")
	}
	bumped, err := PointKeyVersioned(cfg, tr, engine.Version+"+1")
	if err != nil {
		t.Fatal(err)
	}
	if bumped == cur {
		t.Fatalf("engine version bump did not invalidate the key")
	}
}

func TestParseRejectsUnknownFieldAndBadWorkers(t *testing.T) {
	if _, err := Parse([]byte(`{"confg": {}}`)); err == nil {
		t.Fatal("unknown spec field accepted")
	}
	if _, err := Parse([]byte(`{"workers": -1}`)); err == nil {
		t.Fatal("negative workers accepted")
	}
}

func TestParseAppliesConfigDefaults(t *testing.T) {
	s, err := Parse([]byte(`{"config": {"arch": "interposer"}, "traffic": {"kind": "uniform", "rate": 0.01}}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Config.Arch != config.ArchInterposer {
		t.Fatalf("arch = %q", s.Config.Arch)
	}
	if s.Config.VCs != config.Default().VCs {
		t.Fatalf("defaults not applied: vcs = %d", s.Config.VCs)
	}
}

// goldenSpecs are representative experiment specs with committed hashes:
// if any of these change, every cached Result keyed under the old hash is
// orphaned — which must only happen on a deliberate engine.Version bump
// or a deliberate identity-schema change, both of which re-commit these
// constants in the same PR.
var goldenSpecs = []struct {
	name string
	spec func() *Spec
	hash string
}{
	{
		name: "default-single-run",
		spec: func() *Spec { return baseSpec() },
		hash: "a3482aca236ce3a358e2d952ba4e54567eb1aaa352faa1eec073fa2fb5d1e64d",
	},
	{
		name: "channel-grid",
		spec: func() *Spec {
			cfg := config.MustXCYM(4, 4, config.ArchWireless)
			cfg.Channel = config.ChannelExclusive
			cfg.ChannelAssign = config.AssignSpatialReuse
			s := New("channel-grid", cfg, engine.TrafficSpec{
				Kind: engine.TrafficUniform, Rate: 1.0, MemFraction: 0.2, PacketFlits: 16,
			})
			s.Axes = []Axis{{Name: "K", Points: []AxisPoint{
				ConfigPoint("K=2", map[string]any{"wireless_channels": 2}),
				ConfigPoint("K=4", map[string]any{"wireless_channels": 4}),
			}}}
			return s
		},
		hash: "b0409d129eb20b1d52e6f28a400c50ccf346d3a960ac69e1130bde8b11147c71",
	},
}

func TestGoldenHashStability(t *testing.T) {
	for _, g := range goldenSpecs {
		h, err := g.spec().Hash()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if h != g.hash {
			t.Errorf("%s: hash %s, committed golden %s — a spec-identity or engine-version "+
				"change must re-commit the golden alongside the deliberate bump", g.name, h, g.hash)
		}
	}
}

// TestGoldenExampleSpecFile golden-pins the shipped spec-file experiment:
// the example must stay parseable and its grid identity stable.
func TestGoldenExampleSpecFile(t *testing.T) {
	data, err := os.ReadFile("../../examples/specs/hybrid_policy.json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("%d points, want 8 (4 policies x 2 selectors)", len(pts))
	}
	h, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	const golden = "58b6b95c0686ac4190f3250d98fcf4483d117989786ad1672987a113db94bf83"
	if h != golden {
		t.Errorf("hybrid_policy.json hash %s, committed golden %s", h, golden)
	}
}

// TestOneCorePackageRejectedNotPanicking: a one-core package is a valid
// configuration, but a workload that can address another core has no core
// to address. The spec must still expand, and engine.New must return an
// error — a panic from the first generated packet would end a daemon that
// runs submitted specs. Memory-only uniform traffic needs no other core
// and runs.
func TestOneCorePackageRejectedNotPanicking(t *testing.T) {
	const base = `{"name": "one-core",
	  "config": {"chips_x": 1, "chips_y": 1, "cores_x": 1, "cores_y": 1, "cores_per_wi": 1,
	             "warmup_cycles": 50, "measure_cycles": 2000},
	  "axes": [
	    {"name": "arch", "points": [
	      {"patch": {"config": {"arch": "wireless"}}},
	      {"patch": {"config": {"arch": "interposer"}}},
	      {"patch": {"config": {"arch": "substrate"}}}]},
	    {"name": "traffic", "points": [%s]}]}`
	run := func(points string) []Point {
		t.Helper()
		s, err := Parse([]byte(fmt.Sprintf(base, points)))
		if err != nil {
			t.Fatal(err)
		}
		pts, err := s.Expand()
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	for _, p := range run(`{"patch": {"traffic": {"kind": "uniform", "rate": 0.5, "mem_fraction": 0.2}}},
	      {"patch": {"traffic": {"kind": "hotspot", "rate": 0.5, "mem_fraction": 0.2, "hotspot_fraction": 0.5}}},
	      {"patch": {"traffic": {"kind": "app", "app": "canneal"}}}`) {
		if _, err := engine.New(p.Params()); err == nil {
			t.Errorf("%s: engine.New accepted a one-core package with core-to-core traffic", p.Labels)
		}
	}
	for _, p := range run(`{"patch": {"traffic": {"kind": "uniform", "rate": 0.5, "mem_fraction": 1}}}`) {
		r, err := engine.Run(p.Params())
		if err != nil {
			t.Fatalf("%s: %v", p.Labels, err)
		}
		if r.DeliveredPackets == 0 {
			t.Fatalf("%s: memory-only traffic delivered nothing", p.Labels)
		}
	}
}
