// Package stats collects delivery, latency and throughput statistics for a
// simulation run, with warmup elision: latency and energy statistics cover
// packets created after the warmup window (the paper discards the first
// tenth of each run as transient), while window throughput counts all bits
// delivered inside the measurement window.
package stats

import (
	"math"

	"wimc/internal/noc"
	"wimc/internal/sim"
)

// histBuckets is the number of power-of-two latency histogram buckets
// (bucket i covers [2^i, 2^(i+1))).
const histBuckets = 24

// Collector accumulates per-run statistics. It is not safe for concurrent
// use; the simulator is single-threaded by design (determinism).
type Collector struct {
	WarmupCycle sim.Cycle
	WindowEnd   sim.Cycle
	flitBits    int

	// Measured packets: created after warmup, delivered inside the window.
	Packets     int64
	Flits       int64
	LatencySum  float64
	NetLatSum   float64
	QueueLatSum float64
	HopSum      int64
	MaxLatency  sim.Cycle
	Retransmits int64
	latHist     [histBuckets]int64

	// Per-class measured packet counts.
	CoreToCore int64
	CoreToMem  int64
	MemReplies int64

	// Read round trips (request creation to reply delivery).
	ReadRTSum   float64
	ReadRTCount int64

	// Window throughput and energy: every packet delivered inside
	// [WarmupCycle, WindowEnd), regardless of creation time. Energy is
	// sampled here (rather than on the latency sample) so saturated runs,
	// whose in-window deliveries were mostly created before warmup, still
	// yield an energy estimate.
	WindowPackets  int64
	WindowFlits    int64
	WindowBits     int64
	WindowEnergyPJ float64
	WindowLatSum   float64
	WindowHopSum   int64

	// Totals over the whole run (conservation checks).
	TotalDelivered int64

	// FaultCasualties counts delivered packets the fault model marked
	// Faulted (their committed wormhole crossed a fail-stopped transceiver,
	// so they unwound buffers cleanly but lost their payload). Casualties
	// are excluded from every throughput, latency and energy statistic
	// above; TotalDelivered still includes them.
	FaultCasualties int64

	// Per-route-class measured accumulation (indexed by noc.Packet
	// RouteClass: 0 wireless-preferred, 1 wired-only), over the same sample
	// as Packets — it makes the latency and energy cost of wired-class
	// failover directly visible.
	RCPackets [2]int64
	RCLatSum  [2]float64
	RCEnergy  [2]float64
}

// NewCollector returns a collector measuring [warmup, windowEnd).
func NewCollector(warmup, windowEnd sim.Cycle, flitBits int) *Collector {
	return &Collector{WarmupCycle: warmup, WindowEnd: windowEnd, flitBits: flitBits}
}

// OnDelivered records a delivered packet.
func (c *Collector) OnDelivered(now sim.Cycle, p *noc.Packet) {
	c.TotalDelivered++
	if p.Faulted {
		c.FaultCasualties++
		return
	}
	if now >= c.WarmupCycle && now < c.WindowEnd {
		c.WindowPackets++
		c.WindowFlits += int64(p.NumFlits)
		c.WindowBits += int64(p.NumFlits * c.flitBits)
		c.WindowEnergyPJ += p.EnergyPJ()
		c.WindowLatSum += float64(p.Latency())
		c.WindowHopSum += int64(p.Hops)
	}
	if p.CreatedAt < c.WarmupCycle || now >= c.WindowEnd {
		return
	}
	c.Packets++
	c.Flits += int64(p.NumFlits)
	lat := p.Latency()
	c.LatencySum += float64(lat)
	c.NetLatSum += float64(p.NetworkLatency())
	c.QueueLatSum += float64(p.InjectedAt - p.CreatedAt)
	c.HopSum += int64(p.Hops)
	c.Retransmits += int64(p.Retransmits)
	if lat > c.MaxLatency {
		c.MaxLatency = lat
	}
	c.latHist[bucketOf(lat)]++
	if rc := int(p.RouteClass); rc < len(c.RCPackets) {
		c.RCPackets[rc]++
		c.RCLatSum[rc] += float64(lat)
		c.RCEnergy[rc] += p.EnergyPJ()
	}
	switch p.Class {
	case noc.ClassCoreToMem:
		c.CoreToMem++
	case noc.ClassMemReply:
		c.MemReplies++
		c.ReadRTSum += float64(now - p.RequestCreatedAt)
		c.ReadRTCount++
	default:
		c.CoreToCore++
	}
}

func bucketOf(lat sim.Cycle) int {
	if lat < 1 {
		lat = 1
	}
	b := int(math.Log2(float64(lat)))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// AvgLatency returns the mean creation-to-delivery latency in cycles.
func (c *Collector) AvgLatency() float64 { return safeDiv(c.LatencySum, float64(c.Packets)) }

// AvgNetLatency returns the mean injection-to-delivery latency in cycles.
func (c *Collector) AvgNetLatency() float64 { return safeDiv(c.NetLatSum, float64(c.Packets)) }

// AvgQueueLatency returns the mean source-queue wait in cycles.
func (c *Collector) AvgQueueLatency() float64 { return safeDiv(c.QueueLatSum, float64(c.Packets)) }

// AvgHops returns the mean head-flit switch traversals.
func (c *Collector) AvgHops() float64 { return safeDiv(float64(c.HopSum), float64(c.Packets)) }

// AvgWindowLatency returns the mean latency of every packet delivered in
// the measurement window regardless of creation time — the meaningful
// latency sample for deeply saturated runs where no post-warmup packet
// completes inside the window.
func (c *Collector) AvgWindowLatency() float64 {
	return safeDiv(c.WindowLatSum, float64(c.WindowPackets))
}

// AvgWindowHops returns the mean hop count over window-delivered packets.
func (c *Collector) AvgWindowHops() float64 {
	return safeDiv(float64(c.WindowHopSum), float64(c.WindowPackets))
}

// AvgReadRoundTrip returns the mean read round-trip time in cycles
// (request creation to data-reply delivery).
func (c *Collector) AvgReadRoundTrip() float64 {
	return safeDiv(c.ReadRTSum, float64(c.ReadRTCount))
}

// LatencyPercentile returns an upper bound of the given latency percentile
// (histogram bucket resolution).
func (c *Collector) LatencyPercentile(q float64) sim.Cycle {
	if c.Packets == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(c.Packets)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, n := range c.latHist {
		seen += n
		if seen >= target {
			return sim.Cycle(1) << uint(i+1)
		}
	}
	return c.MaxLatency
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
