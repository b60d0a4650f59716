package wimc_test

import (
	"fmt"

	"wimc"
)

// ExampleRun simulates the paper's 4C4M wireless system under its baseline
// workload and prints whether traffic flowed.
func ExampleRun() {
	cfg := wimc.MustXCYM(4, 4, wimc.ArchWireless)
	cfg.MeasureCycles = 2000 // shortened for the example

	res, err := wimc.Run(cfg, wimc.TrafficSpec{
		Kind:        wimc.TrafficUniform,
		Rate:        0.001,
		MemFraction: 0.2,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(res.DeliveredPackets > 0)
	fmt.Println(res.AvgLatency > 0)
	// Output:
	// true
	// true
}

// ExampleRun_largeSystem simulates a 16-chip, 256-core package, twice the
// paper's largest system, under the active-set scheduler. Any chip count
// works: XCYM generalizes beyond the paper's 1/4/8-chip presets to
// near-square grids of 4x4-core chips with proportionally scaled memory
// stacks.
func ExampleRun_largeSystem() {
	cfg := wimc.MustXCYM(16, 16, wimc.ArchWireless)
	cfg.MeasureCycles = 2000 // shortened for the example

	res, err := wimc.Run(cfg, wimc.TrafficSpec{
		Kind:        wimc.TrafficUniform,
		Rate:        0.001,
		MemFraction: 0.2,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(res.Cores)
	fmt.Println(res.DeliveredPackets > 0)
	// Output:
	// 256
	// true
}

// ExampleGainOver compares the wireless system against the interposer
// baseline at saturation, the paper's headline methodology.
func ExampleGainOver() {
	traffic := wimc.TrafficSpec{Kind: wimc.TrafficUniform, MemFraction: 0.2}

	shorten := func(cfg wimc.Config) wimc.Config {
		cfg.MeasureCycles = 2000
		return cfg
	}
	wireless, err := wimc.Saturate(shorten(wimc.MustXCYM(4, 4, wimc.ArchWireless)), traffic)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	interposer, err := wimc.Saturate(shorten(wimc.MustXCYM(4, 4, wimc.ArchInterposer)), traffic)
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	g := wimc.GainOver(wireless, interposer)
	fmt.Println(g.PacketEnergyPct > 0) // wireless spends less energy/packet
	// Output:
	// true
}

// ExampleParseConfig loads a configuration override from JSON; absent
// fields keep their defaults.
func ExampleParseConfig() {
	cfg, err := wimc.ParseConfig([]byte(`{"arch": "hybrid", "seed": 7}`))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(cfg.Arch, cfg.Seed, cfg.VCs)
	// Output:
	// hybrid 7 8
}
