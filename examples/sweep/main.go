// Sweep the memory-access share (Fig. 5 methodology) and the wireless
// protocol variants, showing how the wireless advantage responds to
// workload and design choices.
//
//	go run ./examples/sweep
package main

import (
	"fmt"
	"log"

	"wimc"
)

func main() {
	fmt.Println("Wireless vs interposer as memory traffic grows (4C4M, saturation):")
	for _, mem := range []float64{0.2, 0.4, 0.6, 0.8} {
		tr := wimc.TrafficSpec{Kind: wimc.TrafficUniform, MemFraction: mem}
		ri, err := wimc.Saturate(wimc.MustXCYM(4, 4, wimc.ArchInterposer), tr)
		if err != nil {
			log.Fatal(err)
		}
		rw, err := wimc.Saturate(wimc.MustXCYM(4, 4, wimc.ArchWireless), tr)
		if err != nil {
			log.Fatal(err)
		}
		g := wimc.GainOver(rw, ri)
		fmt.Printf("  mem %3.0f%%: bandwidth %+6.1f%%   packet energy %+6.1f%%\n",
			mem*100, g.BandwidthPct, g.PacketEnergyPct)
	}

	fmt.Println("\nChannel-model ablation (crossbar vs exclusive medium), 4C4M wireless at saturation:")
	for _, ch := range []wimc.ChannelMode{wimc.ChannelCrossbar, wimc.ChannelExclusive} {
		cfg := wimc.MustXCYM(4, 4, wimc.ArchWireless)
		cfg.Channel = ch
		if ch == wimc.ChannelExclusive {
			cfg.WirelessChannels = 1 // single shared medium (the literal PHY)
		}
		r, err := wimc.Saturate(cfg, wimc.TrafficSpec{Kind: wimc.TrafficUniform, MemFraction: 0.2})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s %6.3f Gbps/core\n", ch, r.BandwidthPerCoreGbps)
	}

	fmt.Println("\nWI density (1C4M, 64-core chip, moderate load):")
	for _, density := range []int{64, 32, 16, 8} {
		cfg := wimc.MustXCYM(1, 4, wimc.ArchWireless)
		cfg.CoresPerWI = density
		r, err := wimc.Run(cfg, wimc.TrafficSpec{
			Kind: wimc.TrafficUniform, Rate: 0.002, MemFraction: 0.2,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  1 WI per %2d cores: latency %6.1f cycles, %.2f hops\n",
			density, r.AvgLatency, r.AvgHops)
	}
}
