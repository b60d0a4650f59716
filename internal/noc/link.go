package noc

import (
	"wimc/internal/energy"
	"wimc/internal/sim"
)

// timedFlit is a flit in flight with its arrival cycle.
type timedFlit struct {
	at sim.Cycle
	f  Flit
}

// timedCredit is a credit in flight back to the transmitter.
type timedCredit struct {
	at sim.Cycle
	vc int
}

// Link is a directed, bandwidth-limited, pipelined wire between two switch
// ports. It implements Conduit for the upstream output port and CreditSink
// for the downstream input port.
//
// Bandwidth tokens refill lazily (see sim.TokenBucket), so an idle link
// costs nothing per cycle; the engine only ticks Deliver while the link has
// flits or credits in flight (sim.Queue pipelines), tracked through the
// activity set installed with SetActivity. The upstream output port is the
// bucket's only spender, so Accept tells it when the link can take the
// next flit and the switch never asks the link (see Switch.TickSAST).
type Link struct {
	latency sim.Cycle
	bucket  sim.TokenBucket
	// part is the meter part of the shard owning the upstream switch, the
	// one that runs Accept; charge is the per-flit link energy.
	part   *energy.Part
	charge energy.Charge

	src     *Switch
	srcPort int
	dst     *Switch
	dstPort int

	inflight sim.Queue[timedFlit]
	credits  sim.Queue[timedCredit]

	active   *sim.ActiveSet
	activeID int

	// mailbox, when non-nil, replaces direct delivery with the parity
	// ping-pong handoff of sharded execution (see mailbox.go).
	mailbox *linkMailbox
}

// NewLink constructs a directed link that charges each flit's energy to
// part. Wiring to switch ports is performed by the engine (the link must
// know both ends to deliver flits and return credits).
func NewLink(class energy.Class, latency int, rate sim.Rate, pjPerBit float64,
	flitBits int, part *energy.Part) *Link {
	if latency < 1 {
		latency = 1
	}
	return &Link{
		latency: sim.Cycle(latency),
		bucket:  sim.NewTokenBucket(rate),
		part:    part,
		charge:  energy.NewCharge(class, flitBits, pjPerBit*float64(flitBits)),
	}
}

// Connect attaches the link between src output-side and dst input-side,
// and records srcPort as src's wired output toward dst (see Switch.Route).
func (l *Link) Connect(src *Switch, srcPort int, dst *Switch, dstPort int) {
	l.src, l.srcPort = src, srcPort
	l.dst, l.dstPort = dst, dstPort
	src.setPortToward(dst.ID, srcPort)
}

// SetActivity registers the link in the engine's link activity set under
// index id; the link adds itself whenever it gains in-flight work.
func (l *Link) SetActivity(set *sim.ActiveSet, id int) {
	l.active, l.activeID = set, id
}

// Accept launches a flit onto the wire, spending one flit of bandwidth
// tokens, and returns the first cycle the bucket can spend again
// (sim.TokenBucket.NextSpend): the link takes no flit before it.
func (l *Link) Accept(now sim.Cycle, f Flit, _ sim.SwitchID) sim.Cycle {
	if !l.bucket.TrySpendAt(now) {
		panic("noc: link accepted flit without bandwidth tokens")
	}
	l.part.Add(l.charge)
	f.Pkt.AddEnergy(l.charge.FP)
	l.inflight.Push(timedFlit{at: now + l.latency, f: f})
	l.active.Add(l.activeID)
	return l.bucket.NextSpend()
}

// ReturnCredit schedules a freed downstream buffer slot back to the source
// output port (credit wires share the link latency).
func (l *Link) ReturnCredit(now sim.Cycle, vc int) {
	l.credits.Push(timedCredit{at: now + l.latency, vc: vc})
	l.active.Add(l.activeID)
}

// Deliver moves flits and credits that have completed traversal.
func (l *Link) Deliver(now sim.Cycle) {
	for !l.inflight.Empty() && l.inflight.Peek().at <= now {
		tf := l.inflight.Pop()
		l.dst.Receive(l.dstPort, int(tf.f.VC), tf.f)
	}
	for !l.credits.Empty() && l.credits.Peek().at <= now {
		tc := l.credits.Pop()
		l.src.ReturnCredit(l.srcPort, tc.vc)
	}
}

// Busy reports whether the link still has flits or credits in flight (the
// engine drops idle links from the activity set).
func (l *Link) Busy() bool {
	return !l.inflight.Empty() || !l.credits.Empty()
}

// InFlight returns the number of flits on the wire (test hook).
func (l *Link) InFlight() int { return l.inflight.Len() }

var (
	_ Conduit    = (*Link)(nil)
	_ CreditSink = (*Link)(nil)
)
