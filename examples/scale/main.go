// Sweep system size well beyond the paper's 8-chip limit: saturation
// throughput and energy per bit for the three architectures at 4, 16 and
// 64 chips (256 and 1024 cores use the generalized XCYM grids, run under
// the active-set scheduler).
//
//	go run ./examples/scale
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
	archs := []wimc.Architecture{
		wimc.ArchSubstrate, wimc.ArchInterposer, wimc.ArchWireless,
	}

	// One axis point per (size, architecture), each carrying its whole
	// preset: the preset's name and wireless sub-channel budget depend on
	// both, so patching only the arch field would run a different system.
	system := wimc.Axis{Name: "system"}
	for _, chips := range []int{4, 16, 64} {
		for _, arch := range archs {
			cfg := wimc.MustXCYM(chips, wimc.DefaultStacks(chips), arch)
			system.Points = append(system.Points, wimc.ConfigAxisPoint(cfg.Name, cfg))
		}
	}
	pts, err := wimc.Sweep(&wimc.Spec{
		Name: "scale", Config: wimc.Default(), Traffic: traffic,
		Axes: []wimc.Axis{system},
	})
	if err != nil {
		log.Fatal(err)
	}

	def := wimc.Default()
	bitsPerPacket := float64(def.PacketFlits * def.FlitBits)

	fmt.Println("Saturation throughput and energy/bit vs system size:")
	fmt.Printf("  %-8s %-6s %-11s %14s %12s\n",
		"config", "cores", "arch", "Gbps/core", "pJ/bit")
	for _, p := range pts {
		r := p.Result
		fmt.Printf("  %-8s %-6d %-11s %14.3f %12.1f\n",
			fmt.Sprintf("%dC%dM", p.Config.Chips(), p.Config.MemStacks), r.Cores, p.Config.Arch,
			r.BandwidthPerCoreGbps, r.AvgPacketEnergyNJ*1000/bitsPerPacket)
	}
}
