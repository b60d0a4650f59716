package figures

import (
	"wimc/internal/config"
	"wimc/internal/spec"
)

// variants returns the whole-configuration axis of the 4C4M wireless
// preset under each adjustment in turn.
func variants(o Opts, name string, adjust ...func(*config.Config)) (spec.Axis, error) {
	base, err := preset(o, 4, config.ArchWireless)
	if err != nil {
		return spec.Axis{}, err
	}
	cfgs := make([]config.Config, len(adjust))
	for i, a := range adjust {
		cfgs[i] = base
		a(&cfgs[i])
	}
	return whole(name, cfgs...), nil
}

// AblationMAC compares the paper's control-packet MAC against the
// whole-packet token MAC baseline [7] on the exclusive shared channel:
// latency, delivered bandwidth, protocol overhead and — the paper's
// argument — the WI transmit-buffer requirement.
func AblationMAC(o Opts) (*Table, error) {
	t := &Table{
		ID:     "mac",
		Title:  "Control-packet MAC vs token MAC (exclusive 16 Gbps channel, 4C4M wireless)",
		Header: []string{"mac", "avg_latency", "bw_per_core_gbps", "control_pkts", "token_passes", "max_wi_tx_flits"},
		Notes: []string{
			"paper §III.D: partial-packet control MAC avoids whole-packet buffering in the WIs",
		},
	}
	exclusive := func(mac config.MACMode) func(*config.Config) {
		return func(cfg *config.Config) {
			cfg.Channel = config.ChannelExclusive
			cfg.WirelessChannels = 1 // the literal single shared medium
			cfg.MAC = mac
			if mac == config.MACToken {
				cfg.TXBufferFlits = cfg.PacketFlits // whole packets must fit
			}
		}
	}
	macs, err := variants(o, "mac", exclusive(config.MACControlPacket), exclusive(config.MACToken))
	if err != nil {
		return nil, err
	}
	pts, rs, err := grid(o, uniform(0.0003, 0.2), macs)
	if err != nil {
		return nil, err
	}
	for i, r := range rs {
		t.Rows = append(t.Rows, []string{
			string(pts[i].Config.MAC),
			f("%.0f", r.AvgLatency),
			f("%.3f", r.BandwidthPerCoreGbps),
			f("%d", r.ControlPackets),
			f("%d", r.TokenPasses),
			f("%d", r.WIMaxTxDepth),
		})
	}
	return t, nil
}

// AblationChannel quantifies the channel-model choice described in the
// internal/core package doc: the gap between the results-consistent
// crossbar channel and the literal single shared 16 Gbps medium.
func AblationChannel(o Opts) (*Table, error) {
	t := &Table{
		ID:     "channel",
		Title:  "Crossbar channel model vs faithful exclusive 16 Gbps medium (4C4M wireless, saturation)",
		Header: []string{"channel", "peak_bw_per_core_gbps", "avg_latency", "avg_packet_energy_nj"},
		Notes: []string{
			"the paper's reported multi-Gbps per-core bandwidth is unreachable on a single shared 16 Gbps channel",
		},
	}
	channels, err := variants(o, "channel",
		func(cfg *config.Config) { cfg.Channel = config.ChannelCrossbar },
		func(cfg *config.Config) {
			cfg.Channel = config.ChannelExclusive
			cfg.WirelessChannels = 1 // the literal single shared medium
		})
	if err != nil {
		return nil, err
	}
	pts, rs, err := grid(o, uniform(1.0, 0.2), channels)
	if err != nil {
		return nil, err
	}
	for i, r := range rs {
		t.Rows = append(t.Rows, []string{
			string(pts[i].Config.Channel),
			f("%.3f", r.BandwidthPerCoreGbps),
			f("%.0f", r.AvgLatency),
			f("%.1f", r.AvgPacketEnergyNJ),
		})
	}
	return t, nil
}

// AblationRouting quantifies the table-mode choice described in the
// internal/route package doc: per-source shortest paths versus the paper's
// literal single shortest-path tree.
func AblationRouting(o Opts) (*Table, error) {
	t := &Table{
		ID:     "routing",
		Title:  "Shortest-path routing vs single-tree routing (4C4M, moderate load)",
		Header: []string{"arch", "routing", "avg_latency", "bw_per_core_gbps", "avg_hops"},
		Notes: []string{
			"a single tree forces all inter-WI traffic through the root WI, defeating one-hop wireless links",
		},
	}
	sys, err := systems(o, []int{4}, versus, nil)
	if err != nil {
		return nil, err
	}
	modes := fieldAxis(spec.ConfigPoint, "routing_mode", []config.RoutingMode{config.RouteShortest, config.RouteTree})
	pts, rs, err := grid(o, uniform(0.001, 0.2), sys, modes)
	if err != nil {
		return nil, err
	}
	for i, r := range rs {
		t.Rows = append(t.Rows, []string{
			string(pts[i].Config.Arch),
			string(pts[i].Config.Routing),
			f("%.0f", r.AvgLatency),
			f("%.3f", r.BandwidthPerCoreGbps),
			f("%.2f", r.AvgHops),
		})
	}
	return t, nil
}

// AblationSleep quantifies the sleepy-transceiver power gating [17]: WI
// awake fraction and total wireless-domain static energy with and without
// power gating.
func AblationSleep(o Opts) (*Table, error) {
	t := &Table{
		ID:     "sleep",
		Title:  "Sleepy transceivers vs always-on receivers (4C4M wireless, moderate load)",
		Header: []string{"sleep", "wi_awake_fraction", "wi_static_nj", "total_static_uj"},
	}
	sleep, err := variants(o, "sleep",
		func(cfg *config.Config) { cfg.SleepEnabled = true },
		func(cfg *config.Config) { cfg.SleepEnabled = false })
	if err != nil {
		return nil, err
	}
	pts, rs, err := grid(o, uniform(0.001, 0.2), sleep)
	if err != nil {
		return nil, err
	}
	for i, r := range rs {
		t.Rows = append(t.Rows, []string{
			f("%v", pts[i].Config.SleepEnabled),
			f("%.3f", r.WIAwakeFraction),
			f("%.1f", r.WIStaticPJ/1e3),
			f("%.3f", r.StaticPJ/1e6),
		})
	}
	return t, nil
}

// AblationDensity explores WI deployment density on the single-chip system
// (paper §III.A: density trades area and channel contention against hop
// count to the nearest WI).
func AblationDensity(o Opts) (*Table, error) {
	t := &Table{
		ID:     "density",
		Title:  "WI deployment density, 1C4M wireless (64-core chip, moderate load)",
		Header: []string{"cores_per_wi", "wis_on_chip", "avg_latency", "bw_per_core_gbps", "avg_hops"},
	}
	sys, err := systems(o, []int{1}, []config.Architecture{config.ArchWireless}, nil)
	if err != nil {
		return nil, err
	}
	densities := fieldAxis(spec.ConfigPoint, "cores_per_wi", []int{64, 32, 16, 8})
	pts, rs, err := grid(o, uniform(0.002, 0.2), sys, densities)
	if err != nil {
		return nil, err
	}
	for i, r := range rs {
		cfg := pts[i].Config
		t.Rows = append(t.Rows, []string{
			f("%d", cfg.CoresPerWI),
			f("%d", cfg.Cores()/cfg.CoresPerWI),
			f("%.0f", r.AvgLatency),
			f("%.3f", r.BandwidthPerCoreGbps),
			f("%.2f", r.AvgHops),
		})
	}
	return t, nil
}
