package figures

import (
	"wimc/internal/config"
	"wimc/internal/engine"
	"wimc/internal/spec"
)

// defaultHybridKs is the sub-channel ladder of the hybrid sweep: the
// shared-medium baseline plus the two points where the channel sweep
// showed sub-channel scaling paying (4) and saturating the MAC (8).
var defaultHybridKs = []int{1, 4, 8}

// hybridSelects is the route-selection ladder of the hybrid sweep.
var hybridSelects = []config.RouteSelect{config.SelectStatic, config.SelectAdaptive}

// HybridSweep answers the ROADMAP's open item — the hybrid architecture's
// behavior at scale — by rerunning the channel-sweep methodology on the
// hybrid overlay: interposer wiring plus the K-sub-channel exclusive
// wireless fabric (spatial reuse, skip-empty arbitration so channel time
// follows backlog), at maximum load with 20% memory traffic, across
// system sizes × K ∈ {1,4,8} × route_select ∈ {static, adaptive}. Static
// selection routes every packet by the single full-graph table (the
// pre-class behavior, byte-identical); adaptive selection classifies each
// packet at injection from live load signals and spills wireless-bound
// traffic onto the interposer while the transmitting WI is saturated.
// Reported per (size, K, selector): saturation bandwidth per core and
// packet energy per bit, plus the adaptive runs' spilled-packet share.
//
// Packets are one receive-buffer reservation (16 flits) for the same
// reason as the channel sweep: full-size packets need four turns of their
// source WI and never finish a 64-chip rotation within the window.
func HybridSweep(o Opts) (*Table, error) {
	sizes := o.ScaleSizes
	if len(sizes) == 0 {
		sizes = defaultChannelSizes
	}
	ks := o.ChannelKs
	if len(ks) == 0 {
		ks = defaultHybridKs
	}
	t := &Table{
		ID:     "hybridsweep",
		Title:  "Hybrid overlay at scale: route selection vs saturation bandwidth and energy (exclusive channel, skip-empty)",
		Header: []string{"config", "cores"},
		Notes: []string{
			"extension experiment: multi-class routing on the hybrid architecture (config.RouteSelectMode)",
			"bw in Gbps/core at saturation (uniform, 20% memory, 16-flit packets); energy in pJ/bit",
			"static = every packet on the full-graph shortest-path table (pre-class behavior); adaptive = injection-time spill onto the interposer while the transmitting WI is saturated (hysteresis-bounded)",
			"spill_k* = share of adaptive-run packets classified wired-only at injection",
		},
	}
	for _, k := range ks {
		t.Header = append(t.Header, f("bw_k%d_static", k), f("bw_k%d_adaptive", k))
	}
	for _, k := range ks {
		t.Header = append(t.Header, f("pj_bit_k%d_static", k), f("pj_bit_k%d_adaptive", k))
	}
	for _, k := range ks {
		t.Header = append(t.Header, f("spill_k%d", k))
	}
	sys, err := systems(o, sizes, []config.Architecture{config.ArchHybrid}, func(cfg *config.Config) {
		cfg.Channel = config.ChannelExclusive
		cfg.MACPolicyMode = config.PolicySkipEmpty
	})
	if err != nil {
		return nil, err
	}
	kAxis := spec.Axis{Name: "K"}
	for _, k := range ks {
		assign := config.AssignSpatialReuse
		if k == 1 {
			assign = config.AssignSingle
		}
		kAxis.Points = append(kAxis.Points, spec.ConfigPoint(f("K=%d", k),
			map[string]any{"wireless_channels": k, "channel_assignment": assign}))
	}
	tr := uniform(1.0, 0.2)
	tr.PacketFlits = channelSweepPacketFlits
	pts, rs, err := grid(o, tr, sys, kAxis, fieldAxis(spec.ConfigPoint, "route_select", hybridSelects))
	if err != nil {
		return nil, err
	}
	// spill is the share of an adaptive run's packets classified wired-only
	// at injection.
	spill := func(pt spec.Point, r *engine.Result) []string {
		if pt.Config.RouteSelectMode != config.SelectAdaptive {
			return nil
		}
		total := int64(0)
		//lint:detorder-safe integer sum over the map's values is commutative; order cannot change the total
		for _, n := range r.RouteClassPackets {
			total += n
		}
		share := 0.0
		if total > 0 {
			share = float64(r.RouteClassPackets["wired-only"]) / float64(total)
		}
		return []string{f("%.3f", share)}
	}
	sizeRows(t, pts, rs, len(ks)*len(hybridSelects), bw("%.4f"), pjBitCell, spill)
	return t, nil
}
