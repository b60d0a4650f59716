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

// TestPortsSizedOnce checks that portCounts, which sizes every switch in
// build, counts exactly the ports build wires. NewSwitch allocates the
// port slices and the VC and packet-record arrays keyed by port once at
// that count and never regrows them: a count too low makes AddInputPort or
// AddOutputPort panic, so a build that returns shows that no switch's
// arrays regrew, and a count too high leaves ports, VC states and records
// unused, which shows as a switch that takes one more port of either
// kind. The builds cover every architecture at 1, 4 and 16 chips and,
// outside -short, the two 64-chip packages the benchmark saturates.
func TestPortsSizedOnce(t *testing.T) {
	chipCounts := []int{1, 4, 16}
	if !testing.Short() {
		chipCounts = append(chipCounts, 64)
	}
	for _, arch := range []config.Architecture{
		config.ArchSubstrate, config.ArchInterposer, config.ArchWireless, config.ArchHybrid,
	} {
		for _, chips := range chipCounts {
			if chips == 64 && arch != config.ArchInterposer && arch != config.ArchWireless {
				continue
			}
			e, err := New(testParams(t, chips, arch))
			if err != nil {
				t.Fatalf("%s %dC: New: %v", arch, chips, err)
			}
			ports := portCounts(e.graph)
			for i, sw := range e.switches {
				for kind, add := range map[string]func(){
					"input":  func() { sw.AddInputPort(nil) },
					"output": func() { sw.AddOutputPort(nil, 1) },
				} {
					if !panics(add) {
						t.Fatalf("%s %dC: switch %d, sized for %d ports, takes another %s port",
							arch, chips, i, ports[i], kind)
					}
				}
			}
		}
	}
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}
