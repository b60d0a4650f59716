package figures

import (
	"wimc/internal/config"
	"wimc/internal/engine"
)

// defaultFaultSizes is the system-size ladder of the resilience sweep: the
// mid and large points of the scale ladder, where the wireless fabric
// carries enough traffic for loss and WI death to matter.
var defaultFaultSizes = []int{16, 64}

// faultVariant is one resilience point: a packet error probability at the
// worst WI pair and a fraction of the WI population fail-stopped at the
// start of the measurement window.
type faultVariant struct {
	name string
	per  float64
	kill float64
}

// faultVariants is the degradation ladder: a fault-free baseline, rising
// PER with the full WI population, then rising WI casualties under light
// loss. The acceptance bar is monotone, graceful degradation — delivered
// bandwidth must stay nonzero even with a quarter of the WIs dead.
var faultVariants = []faultVariant{
	{name: "base", per: 0, kill: 0},
	{name: "per2", per: 0.02, kill: 0},
	{name: "per10", per: 0.10, kill: 0},
	{name: "kill12", per: 0.02, kill: 0.125},
	{name: "kill25", per: 0.02, kill: 0.25},
}

// FaultSweep is the resilience experiment: the hybrid overlay (exclusive
// wireless fabric, spatial reuse, skip-empty arbitration, adaptive route
// selection) at saturation, swept across the fault-model ladder — packet
// error probability at the worst pair, then fail-stopped WI fractions —
// at 16 and 64 chips. Failed WIs are excised from their sub-channel's
// turn ring at the first measured cycle; traffic that would ride them
// fails over to the wired-only class. Reported per (size, variant):
// delivered saturation bandwidth per core, packet energy per bit, and the
// fault ledger (drops, retry exhaustions, failovers). A run that
// deadlocks or starves trips the liveness watchdog and fails the sweep
// outright, so every reported row is also a liveness proof.
func FaultSweep(o Opts) (*Table, error) {
	sizes := o.ScaleSizes
	if len(sizes) == 0 {
		sizes = defaultFaultSizes
	}
	t := &Table{
		ID:     "faults",
		Title:  "Resilience: delivered bandwidth and energy vs packet loss and WI fail-stop fraction (hybrid, exclusive channel, adaptive selection)",
		Header: []string{"config", "cores"},
		Notes: []string{
			"robustness experiment: deterministic fault injection (config.WirelessPER, config.FaultSchedule)",
			"bw in Gbps/core at saturation (uniform, 20% memory, 16-flit packets); energy in pJ/bit",
			"per2/per10 = 2%/10% packet error probability at the worst WI pair (distance-scaled below); kill12/kill25 = 12.5%/25% of WIs fail-stopped at the first measured cycle under 2% PER",
			"drops = packets abandoned (retry exhaustion + dead-WI arrivals); retransmits = corrupted transmissions repeated after NACK; failover = packets rerouted to the wired-only class",
		},
	}
	for _, v := range faultVariants {
		t.Header = append(t.Header, f("bw_%s", v.name))
	}
	for _, v := range faultVariants {
		t.Header = append(t.Header, f("pj_bit_%s", v.name))
	}
	t.Header = append(t.Header, "drops_kill25", "retransmits_per10", "failover_kill25")
	var cfgs []config.Config
	for _, chips := range sizes {
		for _, v := range faultVariants {
			cfg, err := preset(o, chips, config.ArchHybrid)
			if err != nil {
				return nil, err
			}
			cfg.Channel = config.ChannelExclusive
			cfg.ChannelAssign = config.AssignSpatialReuse
			cfg.WirelessChannels = 4
			cfg.MACPolicyMode = config.PolicySkipEmpty
			cfg.RouteSelectMode = config.SelectAdaptive
			cfg.WirelessPER = v.per
			if v.per > 0 {
				cfg.WirelessRetryLimit = 8
			}
			if v.kill > 0 {
				total := cfg.TotalWIs()
				n := int(v.kill * float64(total))
				// Kill evenly spaced WIs at the first measured cycle, so
				// the casualties span sub-channels and the whole
				// degradation lands inside the measurement window.
				for i := 0; i < n; i++ {
					cfg.FaultSchedule = append(cfg.FaultSchedule, config.FaultEvent{
						Cycle: int64(cfg.WarmupCycles),
						Kind:  config.FaultWIFail,
						WI:    i * total / n,
					})
				}
			}
			cfgs = append(cfgs, cfg)
		}
	}
	tr := uniform(1.0, 0.2)
	tr.PacketFlits = channelSweepPacketFlits
	pts, rs, err := grid(o, tr, whole("system", cfgs...))
	if err != nil {
		return nil, err
	}
	stride := len(faultVariants)
	sizeRows(t, pts, rs, stride, bw("%.4f"), pjBitCell)
	for i := range t.Rows {
		cell := func(vi int) *engine.Result { return rs[i*stride+vi] }
		t.Rows[i] = append(t.Rows[i],
			f("%d", cell(4).FaultDrops),
			f("%d", cell(2).Retransmits),
			f("%d", cell(4).FaultFailovers))
	}
	return t, nil
}
