// Sweep the number of orthogonal mm-wave sub-channels on the exclusive
// (literal shared-medium) wireless fabric: saturation throughput and
// energy per bit at K = 1, 2 and 4 sub-channels under spatial frequency
// reuse, on the paper's 4-chip package and the 16-chip grid beyond it.
// K = 1 is the paper's single shared channel; higher K quantifies how much
// of the wireless bandwidth wall concurrent WI groups recover, and what
// the extra control broadcasts cost per bit.
//
//	go run ./examples/channels
package main

import (
	"fmt"
	"log"

	"wimc"
)

func main() {
	traffic := wimc.TrafficSpec{
		Kind:        wimc.TrafficUniform,
		Rate:        1.0, // saturation
		MemFraction: 0.2,
		// One receive-buffer reservation per packet, so packets complete
		// within a single MAC turn (the figures.ChannelSweep methodology).
		PacketFlits: 16,
	}

	// The outer axis carries each package's whole preset; the inner axis
	// patches only the sub-channel count.
	system := wimc.Axis{Name: "system"}
	for _, chips := range []int{4, 16} {
		cfg := wimc.MustXCYM(chips, wimc.DefaultStacks(chips), wimc.ArchWireless)
		cfg.Channel = wimc.ChannelExclusive
		cfg.ChannelAssign = wimc.AssignSpatialReuse
		system.Points = append(system.Points, wimc.ConfigAxisPoint(cfg.Name, cfg))
	}
	subChannels := wimc.Axis{Name: "K"}
	for _, k := range []int{1, 2, 4} {
		subChannels.Points = append(subChannels.Points,
			wimc.ConfigAxisPoint(fmt.Sprintf("K=%d", k), map[string]any{"wireless_channels": k}))
	}
	pts, err := wimc.Sweep(&wimc.Spec{
		Name: "channels", Config: wimc.Default(), Traffic: traffic,
		Axes: []wimc.Axis{system, subChannels},
	})
	if err != nil {
		log.Fatal(err)
	}

	bitsPerPacket := float64(traffic.PacketFlits * wimc.Default().FlitBits)

	fmt.Println("Exclusive wireless channel with K sub-channels (spatial reuse), at saturation:")
	fmt.Printf("  %-8s %-6s %3s %14s %12s\n",
		"config", "cores", "K", "Gbps/core", "pJ/bit")
	for _, p := range pts {
		r := p.Result
		fmt.Printf("  %-8s %-6d %3d %14.4f %12.1f\n",
			fmt.Sprintf("%dC%dM", p.Config.Chips(), p.Config.MemStacks), r.Cores, p.Config.WirelessChannels,
			r.BandwidthPerCoreGbps, r.AvgPacketEnergyNJ*1000/bitsPerPacket)
	}
}
