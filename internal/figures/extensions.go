package figures

import (
	"wimc/internal/config"
	"wimc/internal/spec"
)

// fourArchs is the extended architecture set (paper's three plus hybrid).
var fourArchs = []config.Architecture{
	config.ArchSubstrate, config.ArchInterposer, config.ArchWireless, config.ArchHybrid,
}

// ExtensionHybrid evaluates the hybrid architecture (interposer wiring plus
// the wireless overlay) against the paper's three systems — the natural
// "future work" design point: wires for neighbor bandwidth, wireless single
// hops for distance.
func ExtensionHybrid(o Opts) (*Table, error) {
	t := &Table{
		ID:     "hybrid",
		Title:  "Hybrid (interposer + wireless overlay) vs the paper's architectures, 4C4M",
		Header: []string{"architecture", "peak_bw_per_core_gbps", "avg_packet_energy_nj", "low_load_latency"},
		Notes: []string{
			"extension experiment: not part of the paper's evaluation",
		},
	}
	sys, err := systems(o, []int{4}, fourArchs, nil)
	if err != nil {
		return nil, err
	}
	loads := fieldAxis(spec.TrafficPoint, "rate", []float64{1.0, 0.0005})
	pts, rs, err := grid(o, uniform(0, 0.2), sys, loads)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(rs); i += 2 {
		sat, low := rs[i], rs[i+1]
		t.Rows = append(t.Rows, []string{
			string(pts[i].Config.Arch),
			f("%.3f", sat.BandwidthPerCoreGbps),
			f("%.1f", sat.AvgPacketEnergyNJ),
			f("%.0f", low.AvgLatency),
		})
	}
	return t, nil
}

// ExtensionReadRoundTrip measures memory read transactions (request +
// DRAM service + data reply) across architectures — the end-to-end metric
// an in-package memory system ultimately serves.
func ExtensionReadRoundTrip(o Opts) (*Table, error) {
	t := &Table{
		ID:     "readrt",
		Title:  "Memory read round trip (request + 40-cycle DRAM service + 64-flit reply), 4C4M",
		Header: []string{"architecture", "avg_read_round_trip_cycles", "replies_delivered"},
		Notes: []string{
			"extension experiment: the paper models one-way traffic only",
		},
	}
	sys, err := systems(o, []int{4}, fourArchs, nil)
	if err != nil {
		return nil, err
	}
	reads := uniform(0.0005, 0.5)
	reads.MemReadFraction = 1.0
	pts, rs, err := grid(o, reads, sys)
	if err != nil {
		return nil, err
	}
	for i, r := range rs {
		t.Rows = append(t.Rows, []string{
			string(pts[i].Config.Arch),
			f("%.0f", r.AvgReadRoundTrip),
			f("%d", r.MemReplies),
		})
	}
	return t, nil
}
