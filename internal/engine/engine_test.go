package engine

import (
	"testing"

	"wimc/internal/config"
)

// testParams returns a small, fast parameter set for the given architecture.
func testParams(t *testing.T, chips int, arch config.Architecture) Params {
	t.Helper()
	cfg, err := config.XCYM(chips, 4, arch)
	if err != nil {
		t.Fatalf("XCYM: %v", err)
	}
	cfg.WarmupCycles = 200
	cfg.MeasureCycles = 1800
	return Params{
		Cfg: cfg,
		Traffic: TrafficSpec{
			Kind:        TrafficUniform,
			Rate:        0.002,
			MemFraction: 0.2,
		},
	}
}

func TestRunDeliversPacketsAllArchitectures(t *testing.T) {
	for _, arch := range []config.Architecture{
		config.ArchSubstrate, config.ArchInterposer, config.ArchWireless,
	} {
		arch := arch
		t.Run(string(arch), func(t *testing.T) {
			e, err := New(testParams(t, 4, arch))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			r, err := e.Run()
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if r.DeliveredPackets == 0 {
				t.Fatalf("no packets delivered: %+v", r)
			}
			if r.MeasuredPackets == 0 {
				t.Fatalf("no packets measured: %+v", r)
			}
			if r.AvgLatency <= 0 {
				t.Fatalf("nonpositive latency: %v", r.AvgLatency)
			}
			if err := e.CheckFlitConservation(); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: delivered=%d lat=%.1f bw/core=%.3f Gbps energy=%.1f nJ hops=%.2f",
				arch, r.DeliveredPackets, r.AvgLatency, r.BandwidthPerCoreGbps,
				r.AvgPacketEnergyNJ, r.AvgHops)
		})
	}
}

// TestPortsSizedOnce checks that portCounts, which sizes every switch's
// port slices in build, counts exactly the ports build wires: a count too
// low makes AddInputPort or AddOutputPort grow the slices, one too high
// leaves capacity unused.
func TestPortsSizedOnce(t *testing.T) {
	for _, arch := range []config.Architecture{
		config.ArchSubstrate, config.ArchInterposer, config.ArchWireless, config.ArchHybrid,
	} {
		for _, chips := range []int{4, 16} {
			e, err := New(testParams(t, chips, arch))
			if err != nil {
				t.Fatalf("%s %dC: New: %v", arch, chips, err)
			}
			ports := portCounts(e.graph)
			for i, sw := range e.switches {
				if sw.InputPorts() != ports[i] || sw.OutputPorts() != ports[i] {
					t.Fatalf("%s %dC: switch %d has %d input and %d output ports, sized for %d",
						arch, chips, i, sw.InputPorts(), sw.OutputPorts(), ports[i])
				}
			}
		}
	}
}
