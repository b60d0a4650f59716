// Compare the exclusive MAC's turn arbitration policies at saturation
// with the paper's full-size 64-flit packets: the default rotation burns
// turns on idle WIs and needs NumFlits/BufferDepth = 4 receive-window-
// bounded turns of the source WI per transfer, while the work-conserving
// policies (skip-empty turn queues, drain-aware announcements, weighted
// deficit schedules) spend channel time only where traffic exists.
//
//	go run ./examples/policies
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
	}

	// The outer axis carries each package's whole preset; the inner axis
	// patches only the arbitration policy.
	system := wimc.Axis{Name: "system"}
	for _, chips := range []int{4, 16} {
		cfg := wimc.MustXCYM(chips, wimc.DefaultStacks(chips), wimc.ArchWireless)
		cfg.Channel = wimc.ChannelExclusive
		cfg.ChannelAssign = wimc.AssignSpatialReuse
		cfg.WirelessChannels = 8
		system.Points = append(system.Points, wimc.ConfigAxisPoint(cfg.Name, cfg))
	}
	policies := wimc.Axis{Name: "mac_policy"}
	for _, pol := range []wimc.MACPolicy{
		wimc.PolicyRotate, wimc.PolicySkipEmpty,
		wimc.PolicyDrainAware, wimc.PolicyWeighted,
	} {
		policies.Points = append(policies.Points,
			wimc.ConfigAxisPoint(string(pol), map[string]any{"mac_policy": pol}))
	}
	pts, err := wimc.Sweep(&wimc.Spec{
		Name: "policies", Config: wimc.Default(), Traffic: traffic,
		Axes: []wimc.Axis{system, policies},
	})
	if err != nil {
		log.Fatal(err)
	}

	bitsPerPacket := float64(wimc.Default().PacketFlits * wimc.Default().FlitBits)

	fmt.Println("Exclusive wireless channel (K=8, spatial reuse), MAC arbitration policies at saturation:")
	fmt.Printf("  %-8s %-6s %-12s %14s %12s %10s\n",
		"config", "cores", "policy", "Gbps/core", "pJ/bit", "controls")
	for _, p := range pts {
		r := p.Result
		fmt.Printf("  %-8s %-6d %-12s %14.4f %12.1f %10d\n",
			fmt.Sprintf("%dC%dM", p.Config.Chips(), p.Config.MemStacks), r.Cores, p.Config.MACPolicyMode,
			r.BandwidthPerCoreGbps, r.AvgPacketEnergyNJ*1000/bitsPerPacket,
			r.ControlPackets)
	}
}
