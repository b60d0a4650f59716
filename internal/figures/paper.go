package figures

import (
	"wimc/internal/config"
	"wimc/internal/engine"
	"wimc/internal/spec"
	"wimc/internal/traffic"
)

// threeArchs is the paper's system order in every per-architecture table.
var threeArchs = []config.Architecture{
	config.ArchSubstrate, config.ArchInterposer, config.ArchWireless,
}

// versus is the wireless-over-interposer pair of Figs. 4–6.
var versus = []config.Architecture{config.ArchInterposer, config.ArchWireless}

// Fig2 regenerates Figure 2: peak achievable bandwidth per core and average
// packet energy for the three 4C4M architectures under uniform random
// traffic with 20 % memory accesses, at saturation load.
func Fig2(o Opts) (*Table, error) {
	t := &Table{
		ID:     "fig2",
		Title:  "Peak bandwidth/core and avg packet energy, 4C4M, uniform random (20% memory)",
		Header: []string{"architecture", "peak_bw_per_core_gbps", "avg_packet_energy_nj", "avg_hops"},
		Notes: []string{
			"paper shape: Wireless > Interposer > Substrate on bandwidth; Wireless < Interposer < Substrate on energy",
		},
	}
	sys, err := systems(o, []int{4}, threeArchs, nil)
	if err != nil {
		return nil, err
	}
	pts, rs, err := grid(o, uniform(1.0, 0.2), sys)
	if err != nil {
		return nil, err
	}
	for i, r := range rs {
		hops := r.AvgHops
		if r.MeasuredPackets == 0 {
			hops = r.AvgDeliveredHops // saturated: report delivered sample
		}
		t.Rows = append(t.Rows, []string{
			string(pts[i].Config.Arch),
			f("%.3f", r.BandwidthPerCoreGbps),
			f("%.1f", r.AvgPacketEnergyNJ),
			f("%.2f", hops),
		})
	}
	return t, nil
}

// Fig3 regenerates Figure 3: average packet latency versus injection load
// for the three 4C4M architectures (uniform random, 20 % memory).
func Fig3(o Opts) (*Table, error) {
	loads := []float64{0.0002, 0.0005, 0.001, 0.002, 0.004, 0.01, 0.03, 0.1, 0.3, 1.0}
	if o.Quick {
		loads = []float64{0.0005, 0.002, 0.01, 0.1, 1.0}
	}
	t := &Table{
		ID:     "fig3",
		Title:  "Avg packet latency (cycles) vs injection load (pkts/core/cycle), 4C4M",
		Header: []string{"load", "substrate", "interposer", "wireless"},
		Notes: []string{
			"paper shape: wireless lowest at low load; substrate saturates first",
			"latency sample censors packets still in flight at window end (paper methodology: fixed 10k-cycle runs)",
		},
	}
	sys, err := systems(o, []int{4}, threeArchs, nil)
	if err != nil {
		return nil, err
	}
	pts, rs, err := grid(o, uniform(0, 0.2), fieldAxis(spec.TrafficPoint, "rate", loads), sys)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(rs); i += len(threeArchs) {
		row := []string{f("%.4f", pts[i].Traffic.Rate)}
		for _, r := range rs[i : i+len(threeArchs)] {
			lat := r.AvgLatency
			if r.MeasuredPackets == 0 {
				lat = r.AvgDeliveredLatency // saturated: report delivered sample
			}
			row = append(row, f("%.0f", lat))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig4 regenerates Figure 4: percentage gain in bandwidth and packet energy
// of the wireless system over the interposer baseline as chip-to-chip
// traffic grows with disintegration (1C4M ≈ 20 % off-chip, 4C4M ≈ 80 %,
// 8C4M ≈ 90 %; 20 % memory accesses throughout).
func Fig4(o Opts) (*Table, error) {
	t := &Table{
		ID:     "fig4",
		Title:  "% gain of Wireless over Interposer vs chip count (uniform, 20% memory, saturation)",
		Header: []string{"config", "offchip_traffic", "bw_gain_pct", "energy_gain_pct", "wireless_bw", "interposer_bw"},
		Notes: []string{
			"paper: gains shrink toward ~11% bandwidth / ~37% energy at 8C4M",
			"1C4M bandwidth gain is negative under any finite-capacity wireless fabric",
		},
	}
	offchip := map[int]string{1: "20%", 4: "80%", 8: "90%"}
	sys, err := systems(o, []int{1, 4, 8}, versus, nil)
	if err != nil {
		return nil, err
	}
	pts, rs, err := grid(o, uniform(1.0, 0.2), sys)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(rs); i += 2 {
		ri, rw := rs[i], rs[i+1]
		chips := pts[i].Config.Chips()
		t.Rows = append(t.Rows, []string{
			f("%dC4M", chips),
			offchip[chips],
			f("%+.1f", gainPct(rw.BandwidthPerCoreGbps, ri.BandwidthPerCoreGbps)),
			f("%+.1f", reductionPct(ri.AvgPacketEnergyNJ, rw.AvgPacketEnergyNJ)),
			f("%.3f", rw.BandwidthPerCoreGbps),
			f("%.3f", ri.BandwidthPerCoreGbps),
		})
	}
	return t, nil
}

// Fig5 regenerates Figure 5: percentage gain in bandwidth and packet energy
// of the 4C4M wireless system over the interposer baseline as the memory
// access share sweeps 20→80 %.
func Fig5(o Opts) (*Table, error) {
	t := &Table{
		ID:     "fig5",
		Title:  "% gain of Wireless over Interposer vs memory access share, 4C4M (saturation)",
		Header: []string{"memory_access", "bw_gain_pct", "energy_gain_pct", "wireless_bw", "interposer_bw"},
		Notes: []string{
			"paper: gains flatten asymptotically near ~10% bandwidth / ~35% energy",
		},
	}
	sys, err := systems(o, []int{4}, versus, nil)
	if err != nil {
		return nil, err
	}
	mems := fieldAxis(spec.TrafficPoint, "mem_fraction", []float64{0.2, 0.4, 0.6, 0.8})
	pts, rs, err := grid(o, uniform(1.0, 0), mems, sys)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(rs); i += 2 {
		ri, rw := rs[i], rs[i+1]
		t.Rows = append(t.Rows, []string{
			f("%.0f%%", pts[i].Traffic.MemFraction*100),
			f("%+.1f", gainPct(rw.BandwidthPerCoreGbps, ri.BandwidthPerCoreGbps)),
			f("%+.1f", reductionPct(ri.AvgPacketEnergyNJ, rw.AvgPacketEnergyNJ)),
			f("%.3f", rw.BandwidthPerCoreGbps),
			f("%.3f", ri.BandwidthPerCoreGbps),
		})
	}
	return t, nil
}

// Fig6 regenerates Figure 6: percentage gain in packet latency and packet
// energy of the 4C4M wireless system over the interposer baseline under
// application-specific traffic (SynFull-substitute models of PARSEC and
// SPLASH-2 applications; one thread per chip, DRAM shared).
func Fig6(o Opts) (*Table, error) {
	t := &Table{
		ID:     "fig6",
		Title:  "% gain of Wireless over Interposer, application-specific traffic, 4C4M",
		Header: []string{"application", "suite", "latency_gain_pct", "energy_gain_pct"},
		Notes: []string{
			"paper: all applications favor wireless; average ≈54% latency, ≈45% energy",
		},
	}
	sys, err := systems(o, []int{4}, versus, o.applyApp)
	if err != nil {
		return nil, err
	}
	apps := fieldAxis(spec.TrafficPoint, "app", traffic.AppNames())
	pts, rs, err := grid(o, engine.TrafficSpec{Kind: engine.TrafficApp}, apps, sys)
	if err != nil {
		return nil, err
	}
	var latSum, enSum float64
	for i := 0; i < len(rs); i += 2 {
		ri, rw := rs[i], rs[i+1]
		app := pts[i].Traffic.App
		latGain := reductionPct(ri.AvgLatency, rw.AvgLatency)
		enGain := reductionPct(ri.AvgPacketEnergyNJ, rw.AvgPacketEnergyNJ)
		latSum += latGain
		enSum += enGain
		t.Rows = append(t.Rows, []string{
			app,
			traffic.Apps()[app].Suite,
			f("%+.1f", latGain),
			f("%+.1f", enGain),
		})
	}
	n := float64(len(t.Rows))
	t.Rows = append(t.Rows, []string{
		"AVERAGE", "",
		f("%+.1f", latSum/n),
		f("%+.1f", enSum/n),
	})
	return t, nil
}
