// Compare the three multichip interconnection architectures of the paper
// (substrate, interposer, wireless) at saturation and at low load —
// the Figure 2 / Figure 3 methodology.
//
//	go run ./examples/compare
package main

import (
	"fmt"
	"log"

	"wimc"
)

func main() {
	traffic := wimc.TrafficSpec{
		Kind:        wimc.TrafficUniform,
		MemFraction: 0.2,
	}

	archs := []wimc.Architecture{
		wimc.ArchSubstrate, wimc.ArchInterposer, wimc.ArchWireless,
	}

	fmt.Println("Peak bandwidth and packet energy at saturation (Fig. 2 methodology):")
	var cfgs []wimc.Config
	for _, a := range archs {
		cfgs = append(cfgs, wimc.MustXCYM(4, 4, a))
	}
	sat, err := wimc.CompareAtSaturation(cfgs, traffic)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range sat {
		fmt.Printf("  %-11s %6.3f Gbps/core   %6.1f nJ/packet\n",
			archs[i], r.BandwidthPerCoreGbps, r.AvgPacketEnergyNJ)
	}

	fmt.Println("\nLatency vs injection load (Fig. 3 methodology):")
	loads := []float64{0.0005, 0.001, 0.002, 0.004}
	fmt.Printf("  %-8s", "load")
	for _, a := range archs {
		fmt.Printf("  %-11s", a)
	}
	fmt.Println()
	for _, load := range loads {
		fmt.Printf("  %-8.4f", load)
		for _, a := range archs {
			t := traffic
			t.Rate = load
			r, err := wimc.Run(wimc.MustXCYM(4, 4, a), t)
			if err != nil {
				log.Fatal(err)
			}
			lat := r.AvgLatency
			if r.MeasuredPackets == 0 {
				lat = r.AvgDeliveredLatency
			}
			fmt.Printf("  %-11.0f", lat)
		}
		fmt.Println()
	}

	fmt.Println("\nGains of wireless over the interposer baseline:")
	g := wimc.GainOver(sat[2], sat[1])
	fmt.Printf("  bandwidth:     %+.1f%%\n", g.BandwidthPct)
	fmt.Printf("  packet energy: %+.1f%% reduction\n", g.PacketEnergyPct)
}
