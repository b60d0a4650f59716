package stats

import (
	"testing"

	"wimc/internal/energy"
	"wimc/internal/noc"
	"wimc/internal/sim"
)

func pkt(id uint64, created, injected sim.Cycle, flits int, class noc.PacketClass) *noc.Packet {
	return &noc.Packet{
		ID: id, Src: 0, Dst: 1,
		NumFlits:   flits,
		Class:      class,
		CreatedAt:  created,
		InjectedAt: injected,
		Hops:       5,
	}
}

// deliver stamps the delivery time (normally done by the endpoint) and
// records the packet.
func deliver(c *Collector, now sim.Cycle, p *noc.Packet) {
	p.DeliveredAt = now
	c.OnDelivered(now, p)
}

func TestWarmupElision(t *testing.T) {
	c := NewCollector(1000, 10000, 32)
	// Created before warmup: counted for throughput, not for latency.
	deliver(c, 2000, pkt(1, 500, 600, 64, noc.ClassCoreToCore))
	if c.Packets != 0 {
		t.Fatal("pre-warmup packet entered the latency sample")
	}
	if c.WindowPackets != 1 || c.WindowFlits != 64 || c.WindowBits != 64*32 {
		t.Fatal("pre-warmup packet missing from window throughput")
	}
	// Created after warmup, delivered in window: both samples.
	deliver(c, 3000, pkt(2, 2000, 2050, 64, noc.ClassCoreToMem))
	if c.Packets != 1 || c.WindowPackets != 2 {
		t.Fatalf("samples %d/%d", c.Packets, c.WindowPackets)
	}
	// Delivered after the window: neither.
	deliver(c, 20000, pkt(3, 2000, 2100, 64, noc.ClassCoreToCore))
	if c.Packets != 1 || c.WindowPackets != 2 {
		t.Fatal("post-window delivery leaked into samples")
	}
	if c.TotalDelivered != 3 {
		t.Fatalf("total delivered %d", c.TotalDelivered)
	}
}

func TestLatencyMath(t *testing.T) {
	c := NewCollector(0, 1000, 32)
	p := pkt(1, 100, 110, 4, noc.ClassCoreToCore)
	deliver(c, 200, p) // latency 100, net 90, queue 10
	q := pkt(2, 100, 140, 4, noc.ClassCoreToCore)
	deliver(c, 400, q) // latency 300, net 260, queue 40
	if got := c.AvgLatency(); got != 200 {
		t.Fatalf("avg latency %v", got)
	}
	if got := c.AvgNetLatency(); got != 175 {
		t.Fatalf("avg net latency %v", got)
	}
	if got := c.AvgQueueLatency(); got != 25 {
		t.Fatalf("avg queue latency %v", got)
	}
	if got := c.AvgHops(); got != 5 {
		t.Fatalf("avg hops %v", got)
	}
	if c.MaxLatency != 300 {
		t.Fatalf("max latency %v", c.MaxLatency)
	}
}

func TestClassCounters(t *testing.T) {
	c := NewCollector(0, 1000, 32)
	deliver(c, 10, pkt(1, 1, 2, 4, noc.ClassCoreToCore))
	deliver(c, 20, pkt(2, 1, 2, 4, noc.ClassCoreToMem))
	deliver(c, 30, pkt(3, 1, 2, 4, noc.ClassCoreToMem))
	if c.CoreToCore != 1 || c.CoreToMem != 2 {
		t.Fatalf("class counts %d/%d", c.CoreToCore, c.CoreToMem)
	}
}

func TestEnergySampleIsWindowBased(t *testing.T) {
	c := NewCollector(1000, 10000, 32)
	p := pkt(1, 100, 200, 4, noc.ClassCoreToCore) // pre-warmup creation
	p.AddEnergy(energy.QuantizePJ(500))
	deliver(c, 5000, p)
	if c.WindowEnergyPJ != 500 {
		t.Fatalf("window energy %v", c.WindowEnergyPJ)
	}
	if got := c.AvgWindowLatency(); got != 4900 {
		t.Fatalf("window latency %v", got)
	}
}

func TestPercentile(t *testing.T) {
	c := NewCollector(0, 1<<30, 32)
	for i := 0; i < 100; i++ {
		lat := sim.Cycle(10)
		if i >= 99 {
			lat = 5000
		}
		p := pkt(uint64(i), 0, 1, 1, noc.ClassCoreToCore)
		deliver(c, lat, p)
	}
	if got := c.LatencyPercentile(0.5); got > 16 {
		t.Fatalf("p50 = %d, want <= 16", got)
	}
	if got := c.LatencyPercentile(0.999); got < 4096 {
		t.Fatalf("p99.9 = %d, want >= 4096", got)
	}
}

func TestPercentileEmpty(t *testing.T) {
	c := NewCollector(0, 100, 32)
	if got := c.LatencyPercentile(0.99); got != 0 {
		t.Fatalf("empty percentile = %d", got)
	}
	if c.AvgLatency() != 0 || c.AvgHops() != 0 {
		t.Fatal("empty averages nonzero")
	}
}

func TestRetransmitAggregation(t *testing.T) {
	c := NewCollector(0, 1000, 32)
	p := pkt(1, 10, 20, 4, noc.ClassCoreToCore)
	p.Retransmits = 3
	deliver(c, 100, p)
	if c.Retransmits != 3 {
		t.Fatalf("retransmits %d", c.Retransmits)
	}
}
