package engine

import (
	"bytes"
	"strings"
	"testing"

	"wimc/internal/config"
	"wimc/internal/route"
)

// hybridSelectCfg returns a shortened hybrid configuration on the
// exclusive channel model (K sub-channels, skip-empty arbitration) — the
// regime where route selection has both a wireless MAC to saturate and an
// interposer to spill onto.
func hybridSelectCfg(chips, k int) config.Config {
	cfg := config.MustXCYM(chips, config.DefaultStacks(chips), config.ArchHybrid)
	cfg.WarmupCycles = 200
	cfg.MeasureCycles = 1500
	cfg.Channel = config.ChannelExclusive
	cfg.WirelessChannels = k
	cfg.ChannelAssign = config.AssignSpatialReuse
	if k == 1 {
		cfg.ChannelAssign = config.AssignSingle
	}
	cfg.MACPolicyMode = config.PolicySkipEmpty
	return cfg
}

// TestStaticSelectorRidesClassZero: a hybrid run under route_select
// "static", explicit or by default, builds and installs both class tables
// but consults no selector, so every packet rides class 0: no traced
// packet names a route class and the Result carries no per-class fields.
// The four runs of a case (explicit and implicit selection, active-set and
// full-tick scheduling) give byte-identical Result JSON. Covered across
// the crossbar and exclusive channel models, the empty default and a
// larger preset; the corpus entry hybrid-static-loaded pins the bytes.
func TestStaticSelectorRidesClassZero(t *testing.T) {
	type cse struct {
		name    string
		cfg     config.Config
		traffic TrafficSpec
	}
	sat := TrafficSpec{Kind: TrafficUniform, Rate: 1.0, MemFraction: 0.2, PacketFlits: 16}
	light := TrafficSpec{Kind: TrafficUniform, Rate: 0.002, MemFraction: 0.2}
	cases := []cse{
		{name: "crossbar-default", cfg: quickCfg(4, config.ArchHybrid), traffic: light},
		{name: "exclusive-k1-sat", cfg: hybridSelectCfg(4, 1), traffic: sat},
		{name: "exclusive-k4-sat", cfg: hybridSelectCfg(4, 4), traffic: sat},
	}
	if !testing.Short() {
		cases = append(cases, cse{name: "exclusive-k8-16chips", cfg: hybridSelectCfg(16, 8), traffic: sat})
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var first string
			for _, explicit := range []bool{false, true} {
				for _, fullTick := range []bool{false, true} {
					cfg := c.cfg
					cfg.RouteSelectMode = "" // the implicit default
					if explicit {
						cfg.RouteSelectMode = config.SelectStatic
					}
					var trace bytes.Buffer
					e, err := New(Params{Cfg: cfg, Traffic: c.traffic, Trace: &trace, fullTick: fullTick})
					if err != nil {
						t.Fatal(err)
					}
					if !e.tables.MultiClass() || e.selector != nil {
						t.Fatalf("explicit=%v fullTick=%v: multi-class %v, selector %T; want both class tables and no selector",
							explicit, fullTick, e.tables.MultiClass(), e.selector)
					}
					r, err := e.Run()
					if err != nil {
						t.Fatal(err)
					}
					if trace.Len() == 0 {
						t.Fatalf("explicit=%v fullTick=%v: no packet traced", explicit, fullTick)
					}
					if bytes.Contains(trace.Bytes(), []byte(`"route_class"`)) {
						t.Fatalf("explicit=%v fullTick=%v: a traced packet carries route_class", explicit, fullTick)
					}
					if r.RouteClassPackets != nil || r.RouteSpills != 0 || r.RouteReturns != 0 ||
						r.RouteClassAvgLatency != nil || r.RouteClassAvgEnergyPJ != nil {
						t.Fatalf("explicit=%v fullTick=%v: static run reports per-class fields: %v %d %d %v %v",
							explicit, fullTick, r.RouteClassPackets, r.RouteSpills, r.RouteReturns,
							r.RouteClassAvgLatency, r.RouteClassAvgEnergyPJ)
					}
					got := resultJSON(t, r)
					if first == "" {
						first = got
					} else if got != first {
						t.Fatalf("explicit=%v fullTick=%v diverged from the implicit active-set run:\ngot:  %s\nwant: %s",
							explicit, fullTick, got, first)
					}
				}
			}
		})
	}
}

// TestAdaptiveSelectorSpillsAndWins: at saturation the adaptive selector
// must actually spill (wired-only packets injected, spill transitions
// counted) and must not fall below the static selector's delivered
// bandwidth — the whole point of load-aware fabric selection.
func TestAdaptiveSelectorSpillsAndWins(t *testing.T) {
	tr := TrafficSpec{Kind: TrafficUniform, Rate: 1.0, MemFraction: 0.2, PacketFlits: 16}
	static := hybridSelectCfg(4, 1)
	static.RouteSelectMode = config.SelectStatic
	rs := mustRun(t, Params{Cfg: static, Traffic: tr})

	adaptive := hybridSelectCfg(4, 1)
	adaptive.RouteSelectMode = config.SelectAdaptive
	e, err := New(Params{Cfg: adaptive, Traffic: tr})
	if err != nil {
		t.Fatal(err)
	}
	ra, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ra.RouteSpills == 0 {
		t.Fatal("saturated adaptive run never spilled")
	}
	if ra.RouteClassPackets["wired-only"] == 0 {
		t.Fatalf("no wired-only packets injected: %v", ra.RouteClassPackets)
	}
	if ra.RouteClassPackets["wireless-preferred"] == 0 {
		t.Fatalf("no wireless-preferred packets injected: %v", ra.RouteClassPackets)
	}
	if ra.BandwidthPerCoreGbps < rs.BandwidthPerCoreGbps {
		t.Fatalf("adaptive bw %.4f below static %.4f", ra.BandwidthPerCoreGbps, rs.BandwidthPerCoreGbps)
	}
	if err := e.CheckFlitConservation(); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckPipelineInvariants(); err != nil {
		t.Fatal(err)
	}
	// Static runs must not report the adaptive-only counters: every
	// packet rides class 0.
	if rs.RouteClassPackets != nil || rs.RouteSpills != 0 {
		t.Fatalf("static run reports selector counters: %v %d", rs.RouteClassPackets, rs.RouteSpills)
	}
}

// TestAdaptiveSelectorReturnsOnDrain: a load pulse against an otherwise
// light workload must drive the hysteresis loop through both transitions —
// spill at saturation, return once the WI drains during the drain window.
func TestAdaptiveSelectorReturnsOnDrain(t *testing.T) {
	cfg := hybridSelectCfg(4, 1)
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 2000
	cfg.DrainCycles = 30000
	cfg.RouteSelectMode = config.SelectAdaptive
	e, err := New(Params{Cfg: cfg, Traffic: TrafficSpec{
		Kind: TrafficUniform, Rate: 0.05, MemFraction: 0.2, PacketFlits: 16,
	}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.RouteSpills == 0 {
		t.Skip("load pulse never saturated the WI on this configuration")
	}
	if r.RouteReturns == 0 {
		t.Fatalf("WI drained (run fully drained: %d delivered) but the selector never returned",
			r.DeliveredPackets)
	}
}

// TestAdaptiveValidationAndReferencePaths: the dead-knob guarantees — the
// adaptive knob is rejected wherever the machinery it names does not
// exist, instead of being silently ignored.
func TestAdaptiveValidationAndReferencePaths(t *testing.T) {
	// engine.New: the legacy single-channel MAC exports no load signals.
	legacy := config.MustXCYM(4, 4, config.ArchHybrid)
	legacy.Channel = config.ChannelExclusive
	legacy.WirelessChannels = 1
	legacy.RouteSelectMode = config.SelectAdaptive
	_, err := New(Params{Cfg: legacy, legacyMAC: true,
		Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.001}})
	if err == nil || !strings.Contains(err.Error(), "legacy") {
		t.Fatalf("legacy + adaptive accepted: %v", err)
	}
}

// TestSelectorWiringMatchesMode: the selector exists exactly on adaptive
// hybrid engines, and the class tables are multi-class exactly on hybrid
// shortest-path graphs.
func TestSelectorWiringMatchesMode(t *testing.T) {
	tr := TrafficSpec{Kind: TrafficUniform, Rate: 0.001}
	he, err := New(Params{Cfg: quickCfg(4, config.ArchHybrid), Traffic: tr})
	if err != nil {
		t.Fatal(err)
	}
	if he.selector != nil {
		t.Fatal("static hybrid engine built a selector")
	}
	if !he.tables.MultiClass() {
		t.Fatal("hybrid engine built no wired-only class")
	}
	acfg := quickCfg(4, config.ArchHybrid)
	acfg.RouteSelectMode = config.SelectAdaptive
	ae, err := New(Params{Cfg: acfg, Traffic: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ae.selector.(*route.AdaptiveSelector); !ok {
		t.Fatalf("adaptive engine selector is %T", ae.selector)
	}
	we, err := New(Params{Cfg: quickCfg(4, config.ArchWireless), Traffic: tr})
	if err != nil {
		t.Fatal(err)
	}
	if we.tables.MultiClass() || we.selector != nil {
		t.Fatal("wireless engine built multi-class routing state")
	}
}
