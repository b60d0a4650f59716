// Package noc implements the runtime network-on-chip fabric of the wimc
// simulator: flits and packets, virtual-channel wormhole switches with a
// three-stage pipeline (route computation, VC allocation, switch
// allocation + traversal), credit-based flow control, bandwidth-limited
// links, and endpoint network interfaces.
package noc

import (
	"fmt"

	"wimc/internal/energy"
	"wimc/internal/sim"
)

// FlitKind classifies a flow-control unit within a packet.
type FlitKind uint8

// Flit kinds. A single-flit packet is HeadTail.
const (
	KindHead FlitKind = iota + 1
	KindBody
	KindTail
	KindHeadTail
)

// String returns the kind name.
func (k FlitKind) String() string {
	switch k {
	case KindHead:
		return "head"
	case KindBody:
		return "body"
	case KindTail:
		return "tail"
	case KindHeadTail:
		return "head+tail"
	default:
		return fmt.Sprintf("flit(%d)", int(k))
	}
}

// PacketClass labels traffic for statistics.
type PacketClass uint8

// Packet classes.
const (
	ClassCoreToCore PacketClass = iota + 1
	ClassCoreToMem
	ClassMemReply
)

// String returns the class name.
func (c PacketClass) String() string {
	switch c {
	case ClassCoreToCore:
		return "core-core"
	case ClassCoreToMem:
		return "core-mem"
	case ClassMemReply:
		return "mem-reply"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Packet is one network transaction, transferred as NumFlits flits under
// wormhole switching.
type Packet struct {
	ID       uint64
	Src, Dst sim.EndpointID
	NumFlits int
	Class    PacketClass

	// Timestamps (cycles). CreatedAt is when the packet entered the source
	// queue; InjectedAt when its head flit left the network interface;
	// DeliveredAt when its tail flit was consumed at the destination.
	CreatedAt   sim.Cycle
	InjectedAt  sim.Cycle
	DeliveredAt sim.Cycle

	// Hops counts switch traversals of the head flit.
	Hops int32

	// RouteClass selects the forwarding-table class every switch routes
	// this packet by (route.RouteClass; 0 = the default full-graph table).
	// Fixed at injection by the engine's route selector; a packet never
	// changes class mid-flight.
	RouteClass uint8

	// energyFP accumulates dynamic energy attributed to this packet in
	// fixed-point picojoules (energy.FPScale). Wired elements charge it
	// only from the head flit (see chargePacket), and the wireless fabric
	// only in serial phases, so it has one writer at a time even when the
	// packet's flits cross switches of different shards in one cycle; it
	// is read only after the tail is delivered. Integer sums do not
	// depend on grouping or order, which keeps per-packet energy
	// byte-identical at every shard count. Read it through EnergyPJ.
	energyFP int64

	// arrivedFlits counts flits consumed at the destination (reassembly
	// bookkeeping; the tail may not be the last to arrive only if the
	// network misorders, which the integration tests assert never happens).
	arrivedFlits int32

	// Retransmits counts wireless flit retransmissions due to injected
	// channel errors.
	Retransmits int32

	// Faulted marks a fault casualty: the packet crossed a fail-stopped
	// wireless transceiver (its committed wormhole completed so buffers and
	// VCs unwind cleanly, but the payload is lost). The statistics collector
	// excludes Faulted deliveries from goodput and latency samples.
	Faulted bool

	// Read marks a memory request that expects a data reply from the DRAM
	// channel.
	Read bool
	// RequestCreatedAt carries, on a reply packet, the creation time of the
	// read request it answers (for round-trip accounting).
	RequestCreatedAt sim.Cycle
	// ReplyFor is the request packet ID a reply answers (0 otherwise).
	ReplyFor uint64
}

// Bits returns the packet payload size in bits for the given flit width.
func (p *Packet) Bits(flitBits int) int { return p.NumFlits * flitBits }

// AddEnergy attributes fp fixed-point picojoules (energy.FPScale; the FP
// of the charge that metered the event) of dynamic energy to the packet.
// It is a plain add, like Hops++: only the flit heading the packet, or a
// serial phase, calls it (see energyFP).
func (p *Packet) AddEnergy(fp int64) { p.energyFP += fp }

// EnergyPJ returns the dynamic energy attributed to the packet so far.
func (p *Packet) EnergyPJ() float64 {
	return float64(p.energyFP) / energy.FPScale
}

// chargePacket attributes the charge of every flit of f's packet to the
// packet when f is its head, and nothing otherwise. A switch, link or NI
// calls it for each flit it meters: under wormhole switching every flit
// crosses each element its head crossed, and the packet's energy is read
// only once its tail is delivered, so NumFlits charges from the head sum
// to the per-flit total exactly, and body flits never touch the Packet.
func chargePacket(f Flit, c energy.Charge) {
	if f.IsHead() {
		f.Pkt.AddEnergy(c.FP * int64(f.Pkt.NumFlits))
	}
}

// Latency returns the queue-to-delivery latency in cycles (valid after
// delivery).
func (p *Packet) Latency() sim.Cycle { return p.DeliveredAt - p.CreatedAt }

// NetworkLatency returns injection-to-delivery latency in cycles.
func (p *Packet) NetworkLatency() sim.Cycle { return p.DeliveredAt - p.InjectedAt }

// Flit is one flow-control unit in flight. The fields are ordered
// largest first so a flit packs into 16 bytes; link queues, NI pipes and
// WI queues hold flits by value. A VC buffer holds none: it keeps a
// record per packet and rebuilds each flit from it (see ring.go).
type Flit struct {
	Pkt *Packet
	Seq int32
	// VC is the virtual channel the flit occupies on the link it is
	// currently traversing (assigned at switch traversal).
	VC   int16
	Kind FlitKind
	// Phase is the VC class of the flit: 0 before its wireless hop, 1
	// after. Splitting the virtual channels by phase layers the channel
	// dependency graph (pre-wireless mesh → wireless → post-wireless mesh),
	// which keeps shortest-path routing with wireless shortcuts
	// deadlock-free.
	Phase uint8
}

// IsHead reports whether the flit opens a packet.
func (f Flit) IsHead() bool { return f.Kind == KindHead || f.Kind == KindHeadTail }

// IsTail reports whether the flit closes a packet.
func (f Flit) IsTail() bool { return f.Kind == KindTail || f.Kind == KindHeadTail }

// flitKind returns the kind of flit seq of an n-flit packet. NIs and VC
// buffers build flits with it from a cached flit count, so a body flit
// never loads its Packet.
func flitKind(seq, n int32) FlitKind {
	switch {
	case n == 1:
		return KindHeadTail
	case seq == 0:
		return KindHead
	case seq == n-1:
		return KindTail
	}
	return KindBody
}
