package wimc_test

import (
	"testing"

	"wimc"
	"wimc/internal/figures"
)

// The figure benchmarks regenerate each evaluation figure of the paper in
// quick mode (shortened measurement windows). Run the full-fidelity
// versions with:
//
//	go run ./cmd/wimcbench            # all figures, paper windows
//	go run ./cmd/wimcbench -fig fig4  # one figure
//
// Benchmarks report wall time per full figure regeneration.

func benchFigure(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := figures.Run(id, figures.Opts{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig2SaturationBandwidth regenerates Figure 2: peak bandwidth per
// core and average packet energy for the three 4C4M architectures.
func BenchmarkFig2SaturationBandwidth(b *testing.B) { benchFigure(b, "fig2") }

// BenchmarkFig3LatencyLoad regenerates Figure 3: latency-versus-load curves
// for the three 4C4M architectures.
func BenchmarkFig3LatencyLoad(b *testing.B) { benchFigure(b, "fig3") }

// BenchmarkFig4ChipCountSweep regenerates Figure 4: wireless-over-interposer
// gains as the system disintegrates into more chips.
func BenchmarkFig4ChipCountSweep(b *testing.B) { benchFigure(b, "fig4") }

// BenchmarkFig5MemorySweep regenerates Figure 5: gains versus memory-access
// share.
func BenchmarkFig5MemorySweep(b *testing.B) { benchFigure(b, "fig5") }

// BenchmarkFig6Applications regenerates Figure 6: per-application gains
// under PARSEC/SPLASH-2 traffic models.
func BenchmarkFig6Applications(b *testing.B) { benchFigure(b, "fig6") }

// BenchmarkAblationMAC compares the control-packet MAC with the token MAC
// baseline on the exclusive shared channel.
func BenchmarkAblationMAC(b *testing.B) { benchFigure(b, "mac") }

// BenchmarkAblationChannel quantifies the crossbar-versus-exclusive channel
// model gap (the channel models are described in the internal/core package
// doc).
func BenchmarkAblationChannel(b *testing.B) { benchFigure(b, "channel") }

// BenchmarkAblationRouting compares per-source shortest-path routing with
// the paper's literal single-tree routing (the table modes are described in
// the internal/route package doc).
func BenchmarkAblationRouting(b *testing.B) { benchFigure(b, "routing") }

// BenchmarkAblationSleep measures the sleepy-transceiver power gating.
func BenchmarkAblationSleep(b *testing.B) { benchFigure(b, "sleep") }

// BenchmarkAblationWIDensity sweeps wireless-interface deployment density.
func BenchmarkAblationWIDensity(b *testing.B) { benchFigure(b, "density") }

// BenchmarkExtensionHybrid evaluates the interposer+wireless hybrid against
// the paper's three architectures.
func BenchmarkExtensionHybrid(b *testing.B) { benchFigure(b, "hybrid") }

// BenchmarkExtensionReadRoundTrip measures memory read transactions
// (request + DRAM service + data reply) across architectures.
func BenchmarkExtensionReadRoundTrip(b *testing.B) { benchFigure(b, "readrt") }

// BenchmarkSimulationThroughput measures raw simulator speed: cycles per
// second on the 4C4M wireless system under moderate load.
func BenchmarkSimulationThroughput(b *testing.B) {
	cfg := wimc.MustXCYM(4, 4, wimc.ArchWireless)
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 2000
	traffic := wimc.TrafficSpec{Kind: wimc.TrafficUniform, Rate: 0.002, MemFraction: 0.2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wimc.Run(cfg, traffic); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.MeasureCycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkExtensionScaleSweep regenerates the large-system scale sweep in
// quick mode (4/16/64 chips, three architectures, saturation load).
func BenchmarkExtensionScaleSweep(b *testing.B) { benchFigure(b, "scale") }

// BenchmarkSystemConstruction measures topology + routing + wiring time for
// the paper's largest preset.
func BenchmarkSystemConstruction(b *testing.B) {
	cfg := wimc.MustXCYM(8, 4, wimc.ArchWireless)
	traffic := wimc.TrafficSpec{Kind: wimc.TrafficUniform, Rate: 0.001, MemFraction: 0.2}
	for i := 0; i < b.N; i++ {
		if _, err := wimc.New(cfg, traffic); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLargeSystemConstruction measures construction of the 64-chip,
// 1024-core generalized preset: topology build, parallel
// per-destination routing tables and the memoized deadlock verification.
func BenchmarkLargeSystemConstruction(b *testing.B) {
	cfg := wimc.MustXCYM(64, 64, wimc.ArchWireless)
	traffic := wimc.TrafficSpec{Kind: wimc.TrafficUniform, Rate: 0.001, MemFraction: 0.2}
	for i := 0; i < b.N; i++ {
		if _, err := wimc.New(cfg, traffic); err != nil {
			b.Fatal(err)
		}
	}
}
