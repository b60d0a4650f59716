package engine

import (
	"testing"

	"wimc/internal/config"
)

// policyK returns a 4C4M exclusive-channel configuration with k
// sub-channels under the given arbitration policy.
func policyK(pol config.MACPolicy, k int) config.Config {
	assign := config.AssignStaticPartition
	if k == 1 {
		assign = config.AssignSingle
	}
	cfg := exclusiveK(assign, k)
	cfg.MACPolicyMode = pol
	return cfg
}

// TestDefaultPolicyIsRotateAndByteIdentical pins the default: a config
// that never mentions mac_policy runs the rotation, byte-identical to one
// that requests it explicitly — the PR 3 fabric behavior is the default
// behavior.
func TestDefaultPolicyIsRotateAndByteIdentical(t *testing.T) {
	if got := config.Default().MACPolicyMode; got != config.PolicyRotate {
		t.Fatalf("default mac_policy %q, want %q", got, config.PolicyRotate)
	}
	implicit := exclusiveK(config.AssignStaticPartition, 2)
	explicit := implicit
	explicit.MACPolicyMode = config.PolicyRotate
	tr := TrafficSpec{Kind: TrafficUniform, Rate: 0.0005, MemFraction: 0.2}
	a := resultJSON(t, mustRun(t, Params{Cfg: implicit, Traffic: tr}))
	b := resultJSON(t, mustRun(t, Params{Cfg: explicit, Traffic: tr}))
	if a != b {
		t.Fatalf("explicit rotate diverged from the default:\ndefault:  %s\nexplicit: %s", a, b)
	}
}

// TestDrainAwareRecoversFullPacketThroughput is the residual-wall
// regression the policies attack: with the paper's full-size 64-flit
// packets, a transfer needs NumFlits/BufferDepth = 4 reservation-bounded
// turns of its source WI under the rotation, so saturation bandwidth
// collapses; drain-aware announcements finish a packet within a turn
// while the receiver drains and must deliver strictly more.
func TestDrainAwareRecoversFullPacketThroughput(t *testing.T) {
	run := func(pol config.MACPolicy) *Result {
		cfg := policyK(pol, 2)
		cfg.WarmupCycles = 200
		cfg.MeasureCycles = 2000
		return mustRun(t, Params{Cfg: cfg,
			Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 1.0, MemFraction: 0.2}})
	}
	rotate := run(config.PolicyRotate)
	drain := run(config.PolicyDrainAware)
	if drain.BandwidthPerCoreGbps <= rotate.BandwidthPerCoreGbps {
		t.Fatalf("drain-aware bw %.5f <= rotate bw %.5f Gbps/core on full-size packets",
			drain.BandwidthPerCoreGbps, rotate.BandwidthPerCoreGbps)
	}
}

// TestSkipEmptySpendsLessControlAtLightLoad: the work-conserving claim at
// the engine level — under a light load where most WIs idle most of the
// time, skip-empty broadcasts far fewer control packets (and keeps
// receivers asleep longer) than the rotation, which burns a turn per
// member continuously, for at least the same delivered traffic.
func TestSkipEmptySpendsLessControlAtLightLoad(t *testing.T) {
	run := func(pol config.MACPolicy) *Result {
		cfg := policyK(pol, 2)
		cfg.WarmupCycles = 200
		cfg.MeasureCycles = 2000
		return mustRun(t, Params{Cfg: cfg,
			Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.0003, MemFraction: 0.2}})
	}
	rotate := run(config.PolicyRotate)
	skip := run(config.PolicySkipEmpty)
	if skip.ControlPackets+skip.TokenPasses >= rotate.ControlPackets+rotate.TokenPasses {
		t.Fatalf("skip-empty spent %d control turns, rotation %d: nothing conserved",
			skip.ControlPackets+skip.TokenPasses, rotate.ControlPackets+rotate.TokenPasses)
	}
	if skip.DeliveredPackets < rotate.DeliveredPackets {
		t.Fatalf("skip-empty delivered %d packets, rotation %d", skip.DeliveredPackets, rotate.DeliveredPackets)
	}
	if skip.WIAwakeFraction >= rotate.WIAwakeFraction {
		t.Fatalf("skip-empty awake fraction %.3f >= rotation %.3f: idle channel still waking receivers",
			skip.WIAwakeFraction, rotate.WIAwakeFraction)
	}
}

// TestLegacyRejectsNonRotatePolicies: the retained pre-sub-channel MAC
// models only the rotation; the engine must refuse to pair it with a
// work-conserving policy rather than silently simulate the wrong
// protocol.
func TestLegacyRejectsNonRotatePolicies(t *testing.T) {
	cfg := exclusiveK(config.AssignSingle, 1)
	cfg.MACPolicyMode = config.PolicySkipEmpty
	_, err := New(Params{Cfg: cfg, legacyMAC: true,
		Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.001}})
	if err == nil {
		t.Fatal("legacy MAC accepted mac_policy skip-empty")
	}
}
