package figures

import (
	"wimc/internal/config"
	"wimc/internal/engine"
	"wimc/internal/spec"
)

// defaultPolicies is the arbitration-policy ladder of the policy sweep.
var defaultPolicies = []config.MACPolicy{
	config.PolicyRotate, config.PolicySkipEmpty,
	config.PolicyDrainAware, config.PolicyWeighted,
}

// policySweepChannels is the sub-channel count of the policy sweep: the
// K=8 point where the channel sweep showed sub-channel scaling saturating
// the MAC — arbitration, not channel count, is the residual wall there.
const policySweepChannels = 8

// PolicySweep measures what the work-conserving MAC arbitration policies
// recover of the turn-rotation wall: the exclusive channel model is rerun
// across system sizes at K=8 sub-channels (spatial reuse) under each
// mac_policy, at maximum load with 20% memory traffic. Unlike the channel
// sweep, packets keep the paper's full 64-flit size, so under the default
// rotation a transfer needs NumFlits/BufferDepth = 4 receive-window-
// bounded turns of its source WI and throughput collapses with member
// count — the regime the skip-empty turn queues, drain-aware
// announcements and weighted schedules attack. Reported per (size,
// policy): saturation bandwidth per core, packet energy per bit, and the
// p50/p95/p99 packet latency percentiles (histogram upper bounds over
// post-warmup packets delivered in-window — arbitration policies trade
// tail latency, not just bandwidth, so means alone hide the cost of long
// optimistic turns).
func PolicySweep(o Opts) (*Table, error) {
	sizes := o.ScaleSizes
	if len(sizes) == 0 {
		sizes = defaultChannelSizes
	}
	policies := o.Policies
	if len(policies) == 0 {
		policies = defaultPolicies
	}
	t := &Table{
		ID:     "policies",
		Title:  "MAC arbitration policy vs saturation bandwidth and energy (exclusive channel, K=8, full-size packets)",
		Header: []string{"config", "cores"},
		Notes: []string{
			"extension experiment: work-conserving turn arbitration (config.MACPolicyMode) on the K-sub-channel exclusive MAC",
			"bw in Gbps/core at saturation (uniform, 20% memory, full 64-flit packets); energy in pJ/bit",
			"rotate = the paper's fixed round-robin (default); skip-empty = O(1) active-turn queues; drain-aware = announcements sized against receiver drain; weighted = backlog-proportional deficit round-robin",
			"p50/p95/p99 in cycles: latency-histogram upper bounds over post-warmup packets delivered in-window (0 when no such packet completes, the deeply saturated regime)",
		},
	}
	for _, pol := range policies {
		t.Header = append(t.Header, f("bw_%s", pol))
	}
	for _, pol := range policies {
		t.Header = append(t.Header, f("pj_bit_%s", pol))
	}
	for _, pol := range policies {
		t.Header = append(t.Header, f("p50_%s", pol), f("p95_%s", pol), f("p99_%s", pol))
	}
	sys, err := systems(o, sizes, []config.Architecture{config.ArchWireless}, func(cfg *config.Config) {
		cfg.Channel = config.ChannelExclusive
		cfg.ChannelAssign = config.AssignSpatialReuse
		cfg.WirelessChannels = policySweepChannels
	})
	if err != nil {
		return nil, err
	}
	pts, rs, err := grid(o, uniform(1.0, 0.2), sys, fieldAxis(spec.ConfigPoint, "mac_policy", policies))
	if err != nil {
		return nil, err
	}
	percentiles := func(_ spec.Point, r *engine.Result) []string {
		return []string{f("%d", r.P50Latency), f("%d", r.P95Latency), f("%d", r.P99Latency)}
	}
	sizeRows(t, pts, rs, len(policies), bw("%.4f"), pjBitCell, percentiles)
	return t, nil
}
