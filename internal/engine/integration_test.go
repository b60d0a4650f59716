package engine

import (
	"testing"

	"wimc/internal/config"
	"wimc/internal/noc"
)

// quickCfg returns a shortened configuration for integration tests.
func quickCfg(chips int, arch config.Architecture) config.Config {
	cfg := config.MustXCYM(chips, 4, arch)
	cfg.WarmupCycles = 200
	cfg.MeasureCycles = 1800
	return cfg
}

func mustRun(t *testing.T, p Params) *Result {
	t.Helper()
	r, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestConservationWithDrain verifies that, with generation stopped and a
// long drain window, every accepted packet is delivered on every preset.
func TestConservationWithDrain(t *testing.T) {
	for _, chips := range []int{1, 4, 8} {
		if chips == 8 && testing.Short() {
			continue // the largest preset rides only in full mode
		}
		for _, arch := range []config.Architecture{
			config.ArchSubstrate, config.ArchInterposer, config.ArchWireless,
		} {
			chips, arch := chips, arch
			t.Run(string(arch)+string(rune('0'+chips)), func(t *testing.T) {
				cfg := quickCfg(chips, arch)
				cfg.MeasureCycles = 800
				cfg.DrainCycles = 60000
				e, err := New(Params{
					Cfg:     cfg,
					Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.0005, MemFraction: 0.2},
				})
				if err != nil {
					t.Fatal(err)
				}
				r, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				accepted := r.GeneratedPackets - r.RefusedPackets
				if accepted == 0 {
					t.Fatal("nothing accepted")
				}
				if r.DeliveredPackets != accepted {
					t.Fatalf("delivered %d of %d accepted packets after drain",
						r.DeliveredPackets, accepted)
				}
				if err := e.CheckFlitConservation(); err != nil {
					t.Fatal(err)
				}
				for _, ep := range e.endpoints {
					if !ep.Drained() {
						t.Fatalf("endpoint %d not drained", ep.ID)
					}
				}
				if f := e.fabric; f != nil && !f.Drained() {
					t.Fatal("wireless fabric not drained")
				}
			})
		}
	}
}

func TestDeterministicResults(t *testing.T) {
	p := Params{
		Cfg:     quickCfg(4, config.ArchWireless),
		Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.002, MemFraction: 0.2},
	}
	a := mustRun(t, p)
	b := mustRun(t, p)
	if a.DeliveredPackets != b.DeliveredPackets ||
		a.AvgLatency != b.AvgLatency ||
		a.DynamicPJ != b.DynamicPJ ||
		a.WindowBits != b.WindowBits {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	p.Cfg.Seed = 999
	c := mustRun(t, p)
	if a.DeliveredPackets == c.DeliveredPackets && a.AvgLatency == c.AvgLatency {
		t.Fatal("different seeds produced identical results")
	}
}

// TestSaturatedRunsSurviveOrderingInvariants drives every architecture at
// maximum load; the endpoint reassembly invariants (in-order flits, tail
// completes packet) panic on any wormhole violation.
func TestSaturatedRunsSurviveOrderingInvariants(t *testing.T) {
	for _, arch := range []config.Architecture{
		config.ArchSubstrate, config.ArchInterposer, config.ArchWireless,
	} {
		r := mustRun(t, Params{
			Cfg:     quickCfg(4, arch),
			Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 1.0, MemFraction: 0.2},
		})
		if r.DeliveredPackets == 0 {
			t.Fatalf("%s: nothing delivered at saturation", arch)
		}
		if r.RefusedPackets == 0 {
			t.Fatalf("%s: max load never filled the source queues", arch)
		}
	}
}

func TestSaturationBandwidthExceedsLowLoad(t *testing.T) {
	cfg := quickCfg(4, config.ArchWireless)
	low := mustRun(t, Params{Cfg: cfg,
		Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.0005, MemFraction: 0.2}})
	sat := mustRun(t, Params{Cfg: cfg,
		Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 1.0, MemFraction: 0.2}})
	if sat.BandwidthPerCoreGbps <= low.BandwidthPerCoreGbps {
		t.Fatalf("saturation bw %.3f <= low-load bw %.3f",
			sat.BandwidthPerCoreGbps, low.BandwidthPerCoreGbps)
	}
}

func TestWirelessShortensPaths(t *testing.T) {
	tr := TrafficSpec{Kind: TrafficUniform, Rate: 0.0005, MemFraction: 0.2}
	ri := mustRun(t, Params{Cfg: quickCfg(4, config.ArchInterposer), Traffic: tr})
	rw := mustRun(t, Params{Cfg: quickCfg(4, config.ArchWireless), Traffic: tr})
	if rw.AvgHops >= ri.AvgHops {
		t.Fatalf("wireless hops %.2f >= interposer %.2f", rw.AvgHops, ri.AvgHops)
	}
	if rw.AvgLatency >= ri.AvgLatency {
		t.Fatalf("wireless latency %.1f >= interposer %.1f", rw.AvgLatency, ri.AvgLatency)
	}
	if rw.AvgPacketEnergyNJ >= ri.AvgPacketEnergyNJ {
		t.Fatalf("wireless energy %.1f >= interposer %.1f",
			rw.AvgPacketEnergyNJ, ri.AvgPacketEnergyNJ)
	}
}

func TestTrafficKindsEndToEnd(t *testing.T) {
	kinds := []TrafficSpec{
		{Kind: TrafficUniform, Rate: 0.002, MemFraction: 0.2},
		{Kind: TrafficHotspot, Rate: 0.002, MemFraction: 0.2, HotspotFraction: 0.3, HotspotCore: 5},
		{Kind: TrafficTranspose, Rate: 0.002},
		{Kind: TrafficBitComplement, Rate: 0.002},
		{Kind: TrafficApp, App: "canneal"},
	}
	for _, ts := range kinds {
		ts := ts
		t.Run(string(ts.Kind), func(t *testing.T) {
			r := mustRun(t, Params{Cfg: quickCfg(4, config.ArchWireless), Traffic: ts})
			if r.DeliveredPackets == 0 {
				t.Fatalf("%s delivered nothing", ts.Kind)
			}
		})
	}
}

func TestBadTrafficRejected(t *testing.T) {
	if _, err := New(Params{Cfg: quickCfg(4, config.ArchWireless),
		Traffic: TrafficSpec{Kind: "smoke-signals", Rate: 0.1}}); err == nil {
		t.Fatal("unknown traffic kind accepted")
	}
	if _, err := New(Params{Cfg: quickCfg(4, config.ArchWireless),
		Traffic: TrafficSpec{Kind: TrafficApp, App: "nethack"}}); err == nil {
		t.Fatal("unknown application accepted")
	}
	bad := quickCfg(4, config.ArchWireless)
	bad.VCs = 0
	if _, err := New(Params{Cfg: bad,
		Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.1}}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestTreeRoutingEndToEnd(t *testing.T) {
	for _, arch := range []config.Architecture{
		config.ArchSubstrate, config.ArchInterposer, config.ArchWireless,
	} {
		cfg := quickCfg(4, arch)
		cfg.Routing = config.RouteTree
		r := mustRun(t, Params{Cfg: cfg,
			Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.0005, MemFraction: 0.2}})
		if r.DeliveredPackets == 0 {
			t.Fatalf("%s/tree delivered nothing", arch)
		}
	}
}

func TestExclusiveChannelEndToEnd(t *testing.T) {
	for _, mac := range []config.MACMode{config.MACControlPacket, config.MACToken} {
		cfg := quickCfg(4, config.ArchWireless)
		cfg.Channel = config.ChannelExclusive
		cfg.WirelessChannels = 1
		cfg.MAC = mac
		if mac == config.MACToken {
			cfg.TXBufferFlits = cfg.PacketFlits
		}
		r := mustRun(t, Params{Cfg: cfg,
			Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.0002, MemFraction: 0.2}})
		if r.DeliveredPackets == 0 {
			t.Fatalf("%s delivered nothing", mac)
		}
		if r.ControlPackets == 0 && r.TokenPasses == 0 {
			t.Fatalf("%s: no MAC activity recorded", mac)
		}
	}
}

func TestBEREndToEnd(t *testing.T) {
	cfg := quickCfg(4, config.ArchWireless)
	cfg.WirelessBER = 0.003
	cfg.DrainCycles = 40000
	e, err := New(Params{Cfg: cfg,
		Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.0005, MemFraction: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Retransmits == 0 {
		t.Fatal("no retransmissions at BER 3e-3")
	}
	accepted := r.GeneratedPackets - r.RefusedPackets
	if r.DeliveredPackets != accepted {
		t.Fatalf("BER lost packets: %d of %d", r.DeliveredPackets, accepted)
	}
}

func TestSleepGatingReflectedInResults(t *testing.T) {
	tr := TrafficSpec{Kind: TrafficUniform, Rate: 0.001, MemFraction: 0.2}
	on := quickCfg(4, config.ArchWireless)
	r1 := mustRun(t, Params{Cfg: on, Traffic: tr})
	if r1.WIAwakeFraction <= 0 || r1.WIAwakeFraction >= 1 {
		t.Fatalf("awake fraction %v with gating", r1.WIAwakeFraction)
	}
	off := quickCfg(4, config.ArchWireless)
	off.SleepEnabled = false
	r2 := mustRun(t, Params{Cfg: off, Traffic: tr})
	if r2.WIAwakeFraction != 1 {
		t.Fatalf("awake fraction %v without gating", r2.WIAwakeFraction)
	}
	if r1.WIStaticPJ >= r2.WIStaticPJ {
		t.Fatalf("gated WI static %v >= always-on %v", r1.WIStaticPJ, r2.WIStaticPJ)
	}
}

func TestEnergyBreakdownPlausible(t *testing.T) {
	r := mustRun(t, Params{Cfg: quickCfg(4, config.ArchWireless),
		Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.002, MemFraction: 0.2}})
	if r.DynamicPJ <= 0 || r.StaticPJ <= 0 {
		t.Fatalf("energy totals %v/%v", r.DynamicPJ, r.StaticPJ)
	}
	for _, key := range []string{"switch", "wireless", "mesh-link", "static"} {
		if r.EnergyBreakdown[key] <= 0 {
			t.Fatalf("breakdown %q missing: %v", key, r.EnergyBreakdown)
		}
	}
	if r.AvgPacketEnergyNJ <= 0 {
		t.Fatal("no per-packet energy")
	}
}

func TestMemoryTrafficReachesChannels(t *testing.T) {
	cfg := quickCfg(4, config.ArchWireless)
	cfg.DrainCycles = 20000
	e, err := New(Params{Cfg: cfg,
		Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.001, MemFraction: 1.0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var memConsumed int64
	for _, ep := range e.endpoints {
		if ep.ID >= 0 && int(ep.ID) < len(e.graph.Endpoints) {
			if e.graph.Endpoints[ep.ID].Kind.String() == "mem-channel" {
				memConsumed += ep.Ejected
			}
		}
	}
	if memConsumed == 0 {
		t.Fatal("pure memory traffic never reached a DRAM channel")
	}
}

func TestPacketClassesTracked(t *testing.T) {
	cfg := quickCfg(4, config.ArchInterposer)
	e, err := New(Params{Cfg: cfg,
		Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.002, MemFraction: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	coll := e.coll
	if coll.CoreToMem == 0 || coll.CoreToCore == 0 {
		t.Fatalf("class mix %d/%d", coll.CoreToCore, coll.CoreToMem)
	}
	ratio := float64(coll.CoreToMem) / float64(coll.CoreToMem+coll.CoreToCore)
	if ratio < 0.3 || ratio > 0.7 {
		t.Fatalf("memory class share %.2f far from 0.5", ratio)
	}
}

func TestHotspotSkewsDeliveries(t *testing.T) {
	cfg := quickCfg(4, config.ArchInterposer)
	cfg.DrainCycles = 20000
	e, err := New(Params{Cfg: cfg,
		Traffic: TrafficSpec{Kind: TrafficHotspot, Rate: 0.001, MemFraction: 0,
			HotspotFraction: 0.7, HotspotCore: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Endpoint IDs order memory channels first; resolve the hotspot core's
	// endpoint through the topology.
	hotID := e.graph.Cores[0]
	eps := e.endpoints
	hot := eps[hotID]
	var rest, n int64
	for _, ep := range eps {
		if ep.ID != hotID && e.graph.Endpoints[ep.ID].Kind.String() == "core" {
			rest += ep.Ejected
			n++
		}
	}
	avg := rest / n
	if hot.Ejected == 0 || hot.Ejected < 5*avg {
		t.Fatalf("hotspot core ejected %d, others avg %d", hot.Ejected, avg)
	}
}

var _ = noc.ClassCoreToCore // keep the noc import for class references
