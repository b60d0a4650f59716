package engine

import (
	"math"
	"strings"
	"testing"

	"wimc/internal/config"
)

// TestThinnedInterposerFailsDeadlockCheck pins a documented constraint:
// removing boundary links from the interposer mesh (µbump thinning) breaks
// the XY regularity that minimal routing relies on, and the build-time
// channel-dependency-graph check must reject it rather than simulate a
// system that can deadlock.
func TestThinnedInterposerFailsDeadlockCheck(t *testing.T) {
	cfg := quickCfg(4, config.ArchInterposer)
	cfg.InterposerBoundaryFr = 0.5
	_, err := New(Params{Cfg: cfg,
		Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.001, MemFraction: 0.2}})
	if err == nil {
		t.Fatal("thinned interposer accepted despite cyclic channel dependencies")
	}
	if !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestDeadknobCleanupRejectedAtEngine pins the deadknob cleanup end to
// end: physical-layer knobs that wimclint's deadknob analyzer surfaced as
// never-validated (a NaN energy constant would previously poison every
// pJ/bit figure silently; an out-of-range µbump budget was silently
// clamped to 1 by the topology builder) are now rejected before an engine
// is ever built.
func TestDeadknobCleanupRejectedAtEngine(t *testing.T) {
	traffic := TrafficSpec{Kind: TrafficUniform, Rate: 0.001, MemFraction: 0.2}

	cfg := quickCfg(4, config.ArchWireless)
	cfg.WirelessPJPerBit = math.NaN()
	if _, err := New(Params{Cfg: cfg, Traffic: traffic}); err == nil ||
		!strings.Contains(err.Error(), "wireless_pj_per_bit") {
		t.Fatalf("NaN wireless_pj_per_bit not rejected: %v", err)
	}

	cfg = quickCfg(4, config.ArchInterposer)
	cfg.InterposerBoundaryFr = 1.5
	if _, err := New(Params{Cfg: cfg, Traffic: traffic}); err == nil ||
		!strings.Contains(err.Error(), "interposer_boundary_fraction") {
		t.Fatalf("out-of-range interposer_boundary_fraction not rejected: %v", err)
	}
}

// TestWirelessChannelBudgetCapsThroughput verifies the orthogonal
// sub-channel budget binds end to end: a single-channel fabric delivers
// less at saturation than the default five-channel one.
func TestWirelessChannelBudgetCapsThroughput(t *testing.T) {
	run := func(channels int) float64 {
		cfg := quickCfg(4, config.ArchWireless)
		cfg.WirelessChannels = channels
		r := mustRun(t, Params{Cfg: cfg,
			Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 1.0, MemFraction: 0.2}})
		return r.BandwidthPerCoreGbps
	}
	one := run(1)
	five := run(5)
	if one >= five {
		t.Fatalf("1-channel bw %.3f >= 5-channel bw %.3f", one, five)
	}
	if one < 0.2 {
		t.Fatalf("1-channel fabric implausibly slow: %.3f", one)
	}
}

// TestInjectionQueueBoundsMemory verifies refused packets never enter the
// system: at saturation, generated = refused + injected + still-queued.
func TestInjectionQueueBoundsMemory(t *testing.T) {
	cfg := quickCfg(4, config.ArchInterposer)
	e, err := New(Params{Cfg: cfg,
		Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 1.0, MemFraction: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	var queued, partial int64
	for _, ep := range e.endpoints {
		queued += int64(ep.QueueLen())
		if !ep.Drained() {
			partial++
		}
	}
	accounted := r.RefusedPackets + r.InjectedPackets + queued
	// Packets bound to NI VCs but not yet fully injected are the only
	// remainder; bound by endpoints * VCs.
	slack := r.GeneratedPackets - accounted
	if slack < 0 || slack > int64(len(e.endpoints)*cfg.VCs) {
		t.Fatalf("packet accounting slack %d (gen %d, refused %d, injected %d, queued %d)",
			slack, r.GeneratedPackets, r.RefusedPackets, r.InjectedPackets, queued)
	}
}

// TestZeroLoad runs with no traffic at all: no deliveries, no energy
// attribution beyond static, and no protocol activity on the crossbar.
func TestZeroLoad(t *testing.T) {
	cfg := quickCfg(4, config.ArchWireless)
	r := mustRun(t, Params{Cfg: cfg,
		Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0, MemFraction: 0.2}})
	if r.GeneratedPackets != 0 || r.DeliveredPackets != 0 {
		t.Fatalf("zero-load generated %d / delivered %d", r.GeneratedPackets, r.DeliveredPackets)
	}
	if r.DynamicPJ != 0 {
		t.Fatalf("zero-load dynamic energy %v", r.DynamicPJ)
	}
	if r.StaticPJ <= 0 {
		t.Fatal("static energy missing")
	}
	if r.WIAwakeFraction != 0 {
		t.Fatalf("idle WIs awake: %v", r.WIAwakeFraction)
	}
}

// TestSingleFlitPackets exercises the HeadTail path through every
// architecture.
func TestSingleFlitPackets(t *testing.T) {
	for _, arch := range []config.Architecture{
		config.ArchSubstrate, config.ArchInterposer, config.ArchWireless, config.ArchHybrid,
	} {
		cfg := quickCfg(4, arch)
		cfg.DrainCycles = 20000
		e, err := New(Params{Cfg: cfg,
			Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.002, MemFraction: 0.2, PacketFlits: 1}})
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		accepted := r.GeneratedPackets - r.RefusedPackets
		if r.DeliveredPackets != accepted {
			t.Fatalf("%s: single-flit delivery %d of %d", arch, r.DeliveredPackets, accepted)
		}
	}
}

// TestLinkUtilizationReported verifies the per-class utilization metric:
// present for every technology in use and bounded by [0, 1].
func TestLinkUtilizationReported(t *testing.T) {
	r := mustRun(t, Params{Cfg: quickCfg(4, config.ArchHybrid),
		Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.002, MemFraction: 0.2}})
	for _, class := range []string{"mesh-link", "interposer-link", "wide-io", "wireless"} {
		u, ok := r.LinkUtilization[class]
		if !ok {
			t.Fatalf("utilization missing class %q: %v", class, r.LinkUtilization)
		}
		if u <= 0 || u > 1 {
			t.Fatalf("utilization[%s] = %v out of (0,1]", class, u)
		}
	}
}
