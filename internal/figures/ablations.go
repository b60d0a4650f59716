package figures

import (
	"wimc/internal/config"
	"wimc/internal/engine"
)

// ablationTraffic is the common moderate-load workload for ablations.
func ablationTraffic(rate float64) engine.TrafficSpec {
	return engine.TrafficSpec{
		Kind:        engine.TrafficUniform,
		Rate:        rate,
		MemFraction: 0.2,
	}
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
	macs := []config.MACMode{config.MACControlPacket, config.MACToken}
	var ps []engine.Params
	for _, mac := range macs {
		cfg := xcym(4, config.ArchWireless, o)
		cfg.Channel = config.ChannelExclusive
		cfg.WirelessChannels = 1 // the literal single shared medium
		cfg.MAC = mac
		if mac == config.MACToken {
			cfg.TXBufferFlits = cfg.PacketFlits // whole packets must fit
		}
		ps = append(ps, engine.Params{Cfg: cfg, Traffic: ablationTraffic(0.0003)})
	}
	rs, err := runBatch(o, ps)
	if err != nil {
		return nil, err
	}
	for i, mac := range macs {
		r := rs[i]
		t.Rows = append(t.Rows, []string{
			string(mac),
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
	channels := []config.ChannelMode{config.ChannelCrossbar, config.ChannelExclusive}
	var ps []engine.Params
	for _, ch := range channels {
		cfg := xcym(4, config.ArchWireless, o)
		cfg.Channel = ch
		if ch == config.ChannelExclusive {
			cfg.WirelessChannels = 1 // the literal single shared medium
		}
		ps = append(ps, saturation(cfg, 0.2))
	}
	rs, err := runBatch(o, ps)
	if err != nil {
		return nil, err
	}
	for i, ch := range channels {
		r := rs[i]
		t.Rows = append(t.Rows, []string{
			string(ch),
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
	type cell struct {
		arch config.Architecture
		mode config.RoutingMode
	}
	var cells []cell
	var ps []engine.Params
	for _, arch := range []config.Architecture{config.ArchInterposer, config.ArchWireless} {
		for _, mode := range []config.RoutingMode{config.RouteShortest, config.RouteTree} {
			cfg := xcym(4, arch, o)
			cfg.Routing = mode
			cells = append(cells, cell{arch, mode})
			ps = append(ps, engine.Params{Cfg: cfg, Traffic: ablationTraffic(0.001)})
		}
	}
	rs, err := runBatch(o, ps)
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		r := rs[i]
		t.Rows = append(t.Rows, []string{
			string(c.arch),
			string(c.mode),
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
	modes := []bool{true, false}
	var ps []engine.Params
	for _, sleep := range modes {
		cfg := xcym(4, config.ArchWireless, o)
		cfg.SleepEnabled = sleep
		ps = append(ps, engine.Params{Cfg: cfg, Traffic: ablationTraffic(0.001)})
	}
	rs, err := runBatch(o, ps)
	if err != nil {
		return nil, err
	}
	for i, sleep := range modes {
		r := rs[i]
		t.Rows = append(t.Rows, []string{
			f("%v", sleep),
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
	densities := []int{64, 32, 16, 8}
	var ps []engine.Params
	wisOnChip := make([]int, len(densities))
	for i, density := range densities {
		cfg := xcym(1, config.ArchWireless, o)
		cfg.CoresPerWI = density
		wisOnChip[i] = cfg.Cores() / density
		ps = append(ps, engine.Params{Cfg: cfg, Traffic: ablationTraffic(0.002)})
	}
	rs, err := runBatch(o, ps)
	if err != nil {
		return nil, err
	}
	for i, density := range densities {
		r := rs[i]
		t.Rows = append(t.Rows, []string{
			f("%d", density),
			f("%d", wisOnChip[i]),
			f("%.0f", r.AvgLatency),
			f("%.3f", r.BandwidthPerCoreGbps),
			f("%.2f", r.AvgHops),
		})
	}
	return t, nil
}
