package engine

import (
	"testing"

	"wimc/internal/config"
	"wimc/internal/energy"
)

// exclusiveK returns a 4C4M exclusive-channel configuration with K
// sub-channels under the given assignment.
func exclusiveK(assign config.ChannelAssignment, k int) config.Config {
	cfg := config.MustXCYM(4, 4, config.ArchWireless)
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 800
	cfg.Channel = config.ChannelExclusive
	cfg.ChannelAssign = assign
	cfg.WirelessChannels = k
	return cfg
}

// TestLegacyExclusiveEquivalence is the K=1 equivalence regression: on one
// sub-channel the refactored per-sub-channel MAC must produce byte-identical
// Result JSON to the retained pre-change single-channel path
// (Params.legacyMAC) — for both MAC protocols and for every
// channel assignment, since all of them degenerate to one group at K=1.
// The two reach each rotate turn by different machines: the legacy MAC
// advances a fixed index, the sub-channel MAC requeues the holder of a
// turn queue that keeps every member.
func TestLegacyExclusiveEquivalence(t *testing.T) {
	assigns := []config.ChannelAssignment{
		config.AssignSingle, config.AssignStaticPartition, config.AssignSpatialReuse,
	}
	for _, mac := range []config.MACMode{config.MACControlPacket, config.MACToken} {
		for _, assign := range assigns {
			t.Run(string(mac)+"/"+string(assign), func(t *testing.T) {
				cfg := exclusiveK(assign, 1)
				cfg.MAC = mac
				if mac == config.MACToken {
					cfg.TXBufferFlits = cfg.PacketFlits
				}
				tr := TrafficSpec{Kind: TrafficUniform, Rate: 0.0004, MemFraction: 0.3, MemReadFraction: 0.5}
				refactored := resultJSON(t, mustRun(t, Params{Cfg: cfg, Traffic: tr}))
				legacy := resultJSON(t, mustRun(t, Params{Cfg: cfg, Traffic: tr, legacyMAC: true}))
				if refactored != legacy {
					t.Fatalf("K=1 sub-channel MAC diverged from the pre-change exclusive path:\nnew:    %s\nlegacy: %s",
						refactored, legacy)
				}
			})
		}
	}
}

// TestExclusiveThroughputScalesWithChannels verifies the point of the
// multi-sub-channel fabric: at saturation, K parallel MAC turn sequences
// deliver more than the single shared medium.
func TestExclusiveThroughputScalesWithChannels(t *testing.T) {
	run := func(assign config.ChannelAssignment, k int) float64 {
		cfg := exclusiveK(assign, k)
		cfg.WarmupCycles = 200
		cfg.MeasureCycles = 2000
		r := mustRun(t, Params{Cfg: cfg,
			Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 1.0, MemFraction: 0.2}})
		return r.BandwidthPerCoreGbps
	}
	one := run(config.AssignSingle, 1)
	fourPart := run(config.AssignStaticPartition, 4)
	fourSpatial := run(config.AssignSpatialReuse, 4)
	if fourPart <= one {
		t.Fatalf("static-partition K=4 bw %.4f <= K=1 bw %.4f", fourPart, one)
	}
	if fourSpatial <= one {
		t.Fatalf("spatial-reuse K=4 bw %.4f <= K=1 bw %.4f", fourSpatial, one)
	}
}

// TestLinkUtilizationUsesFabricBudget is the regression for the
// under-reporting bug: wireless utilization must be normalized by the
// concurrency the fabric actually realizes, not by the raw
// wireless_channels knob. Spatial reuse on the small 4-chip grid leaves
// some of K=8 zones without WIs, so the realized budget is smaller than K;
// utilization must use the realized budget.
func TestLinkUtilizationUsesFabricBudget(t *testing.T) {
	cfg := exclusiveK(config.AssignSpatialReuse, 8)
	e, err := New(Params{Cfg: cfg,
		Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 1.0, MemFraction: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	budget := e.fabric.ConcurrencyBudget()
	if budget >= cfg.WirelessChannels {
		t.Fatalf("expected empty spatial zones on the 4-chip grid: budget %d, K %d",
			budget, cfg.WirelessChannels)
	}
	flits := float64(e.meter.Bits(energy.ClassWireless)) / float64(cfg.FlitBits)
	want := flits / (float64(budget) * float64(r.Cycles))
	if got := r.LinkUtilization["wireless"]; got != want {
		t.Fatalf("wireless utilization %v, want %v (normalized by realized budget %d)",
			got, want, budget)
	}
}

// TestWirelessUtilizationNotDilutedAtKEqualsOne pins the single-channel
// normalization: a saturated single exclusive channel at 16 Gbps (0.2
// flits/cycle) must report utilization near its serialization limit —
// under the old cfg-driven normalization a leftover wireless_channels = 5
// would have diluted this 5x.
func TestWirelessUtilizationNotDilutedAtKEqualsOne(t *testing.T) {
	cfg := exclusiveK(config.AssignSingle, 1)
	r := mustRun(t, Params{Cfg: cfg,
		Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 1.0, MemFraction: 0.2}})
	if u := r.LinkUtilization["wireless"]; u < 0.15 {
		t.Fatalf("saturated exclusive channel reports %.3f utilization; expected near the 0.2 flits/cycle channel rate", u)
	}
}
