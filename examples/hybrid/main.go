// Compare static and adaptive route selection on the hybrid architecture
// (interposer wiring plus the K-sub-channel exclusive wireless overlay)
// at saturation: static pins every packet to the full-graph shortest-path
// table — distant traffic funnels onto the wireless overlay even when its
// MAC is saturated — while adaptive classifies each packet at injection
// from live load signals (source-WI TX backlog, MAC turn-queue depth,
// wired-port credits) and spills wireless-bound traffic onto the
// interposer until the transmitter drains.
//
//	go run ./examples/hybrid
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
		// One receive-buffer reservation per packet, so a transfer
		// completes within a single MAC turn (the figures.HybridSweep
		// methodology).
		PacketFlits: wimc.Default().BufferDepth,
	}

	// The outer axis carries each package's whole preset; the inner axes
	// patch only the sub-channel count (K = 1 is the single shared
	// medium, larger K uses spatial reuse) and the route selection.
	system := wimc.Axis{Name: "system"}
	for _, chips := range []int{4, 16} {
		cfg := wimc.MustXCYM(chips, wimc.DefaultStacks(chips), wimc.ArchHybrid)
		cfg.Channel = wimc.ChannelExclusive
		cfg.MACPolicyMode = wimc.PolicySkipEmpty
		system.Points = append(system.Points, wimc.ConfigAxisPoint(cfg.Name, cfg))
	}
	subChannels := wimc.Axis{Name: "K"}
	for _, k := range []int{1, 8} {
		assign := wimc.AssignSpatialReuse
		if k == 1 {
			assign = wimc.AssignSingle
		}
		subChannels.Points = append(subChannels.Points, wimc.ConfigAxisPoint(fmt.Sprintf("K=%d", k),
			map[string]any{"wireless_channels": k, "channel_assignment": assign}))
	}
	selection := wimc.Axis{Name: "route_select"}
	for _, sel := range []wimc.RouteSelect{wimc.SelectStatic, wimc.SelectAdaptive} {
		selection.Points = append(selection.Points,
			wimc.ConfigAxisPoint(string(sel), map[string]any{"route_select": sel}))
	}
	pts, err := wimc.Sweep(&wimc.Spec{
		Name: "hybrid", Config: wimc.Default(), Traffic: traffic,
		Axes: []wimc.Axis{system, subChannels, selection},
	})
	if err != nil {
		log.Fatal(err)
	}

	bitsPerPacket := float64(wimc.Default().BufferDepth * wimc.Default().FlitBits)

	fmt.Println("Hybrid (interposer + K-sub-channel wireless overlay), route selection at saturation:")
	fmt.Printf("  %-8s %-6s %-3s %-9s %12s %10s %8s\n",
		"config", "cores", "K", "select", "Gbps/core", "pJ/bit", "spilled")
	for _, p := range pts {
		r := p.Result
		fmt.Printf("  %-8s %-6d %-3d %-9s %12.4f %10.1f %8d\n",
			fmt.Sprintf("%dC%dM", p.Config.Chips(), p.Config.MemStacks), r.Cores,
			p.Config.WirelessChannels, p.Config.RouteSelectMode,
			r.BandwidthPerCoreGbps, r.AvgPacketEnergyNJ*1000/bitsPerPacket,
			r.RouteClassPackets["wired-only"])
	}
}
