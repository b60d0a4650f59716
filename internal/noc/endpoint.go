package noc

import (
	"fmt"

	"wimc/internal/energy"
	"wimc/internal/sim"
)

// EventKind labels one NI event (see Event).
type EventKind uint8

// NI event kinds, in the order one Tick can log them.
const (
	EvDelivered EventKind = iota // the packet's tail flit was consumed here
	EvBound                      // the packet was bound to a free injection VC
	EvInjected                   // the packet's head flit entered the network
)

// Event is one NI event, logged by Tick for the engine to act on after
// the NI phase. EP is the endpoint's index in its activity set (the
// engine's global endpoint index), the key that merges several shards'
// logs back into one NI sweep order.
type Event struct {
	EP   int
	Kind EventKind
	Pkt  *Packet
}

// Endpoint is a network interface (NI): the injection path of a traffic
// source (bounded source queue, per-VC wormhole injection with credits) and
// the ejection path of a traffic sink (flit consumption, packet reassembly
// accounting). Cores and DRAM channels are both Endpoints.
type Endpoint struct {
	ID sim.EndpointID

	sw      *Switch
	inPort  int // switch input port fed by this NI
	outPort int // switch output port draining to this NI

	localLatency sim.Cycle
	// part is the meter part of the NI's shard; charge is the energy of one
	// flit crossing the NI, charged on injection and on ejection.
	part   *energy.Part
	charge energy.Charge

	// Injection.
	queue    []*Packet
	queueCap int
	vcs      []injectVC // one per VC of the switch input port fed
	rrVC     int
	bound    int // count of VCs with a bound packet
	// The two pipes are sim.Queue rings of localLatency+1 slots: each takes
	// at most one flit per cycle (one send, or one traversal of the
	// ejection port) and holds it localLatency cycles, and Tick runs every
	// cycle while either holds one.
	toSwitch sim.Queue[timedFlit]

	// Ejection.
	toSink sim.Queue[timedFlit]

	// Shard wiring (SetShard): the activity set the NI joins whenever it
	// gains work, under index activeID, and the event log Tick appends to.
	active   *sim.ActiveSet
	activeID int
	log      *[]Event

	// room, when non-nil, is kept equal to "the source queue has room"
	// (see SetRoomFlag).
	room *bool

	// Counters.
	Generated     int64 // packets offered by the traffic source
	Refused       int64 // packets dropped because the source queue was full
	Injected      int64 // packets whose head flit entered the network
	Ejected       int64 // packets fully consumed here
	FlitsSent     int64 // flits injected into the switch
	FlitsConsumed int64 // flits consumed from the switch
}

// injectVC is one injection VC of an NI: the packet bound to it (nil =
// free), the sequence number of its next flit and its flit count, cached
// at binding so that sending a body flit does not load the Packet, and
// the VC's credits toward the switch input port.
type injectVC struct {
	pkt     *Packet
	seq     int32
	flits   int32
	credits int
}

// NewEndpoint constructs an NI attached to sw, charging its flits' energy
// to part. It adds its own two ports to sw, the input it feeds and the
// ejection output that drains to it, and records the latter as sw's
// ejection port for id (see Switch.Route). The NI must be wired with
// SetShard before it ticks.
func NewEndpoint(id sim.EndpointID, sw *Switch, localLatency int, pjPerBit float64,
	class energy.Class, flitBits, queueCap int, part *energy.Part) *Endpoint {
	if localLatency < 1 {
		localLatency = 1
	}
	e := &Endpoint{
		ID:           id,
		sw:           sw,
		localLatency: sim.Cycle(localLatency),
		part:         part,
		charge:       energy.NewCharge(class, flitBits, pjPerBit*float64(flitBits)),
		queueCap:     queueCap,
		vcs:          make([]injectVC, sw.VCs()),
		toSwitch:     sim.NewQueue[timedFlit](localLatency + 1),
		toSink:       sim.NewQueue[timedFlit](localLatency + 1),
	}
	for i := range e.vcs {
		e.vcs[i].credits = sw.depth
	}
	e.inPort = sw.AddInputPort(e)
	e.outPort = sw.AddOutputPort(e, sw.depth)
	sw.setEjectPort(id, e.outPort)
	return e
}

// SetShard wires the NI to its shard: it joins set under index id
// whenever it gains work or a credit reaches one of its bound VCs, and
// Tick appends its events, keyed by id, to log. The owner drains the log
// after the NI phase.
func (e *Endpoint) SetShard(set *sim.ActiveSet, id int, log *[]Event) {
	e.active, e.activeID, e.log = set, id, log
}

// SetRoomFlag hands the NI a flag to keep equal to len(queue) < queueCap
// from now on: Offer clears it when the queue fills, and Tick sets it when
// it binds a packet out of the queue. The engine's traffic generator reads
// the flags of every core at once, so a core whose queue is full costs it
// no call into the NI.
func (e *Endpoint) SetRoomFlag(room *bool) {
	e.room = room
	*room = len(e.queue) < e.queueCap
}

// Offer enqueues a packet generated by the traffic source. It reports
// false (and counts a refusal) when the source queue is full.
func (e *Endpoint) Offer(p *Packet) bool {
	e.Generated++
	if len(e.queue) >= e.queueCap {
		e.Refused++
		return false
	}
	e.queue = append(e.queue, p)
	if e.room != nil && len(e.queue) >= e.queueCap {
		*e.room = false
	}
	e.active.Add(e.activeID)
	return true
}

// CheckRoomFlag reports an error unless the room flag, when set, equals
// whether the source queue has room (test hook for the engine's per-cycle
// invariant checks).
func (e *Endpoint) CheckRoomFlag() error {
	if e.room != nil && *e.room != (len(e.queue) < e.queueCap) {
		return fmt.Errorf("noc: endpoint %d room flag %v with %d of %d packets queued",
			e.ID, *e.room, len(e.queue), e.queueCap)
	}
	return nil
}

// QueueLen returns the source-queue occupancy.
func (e *Endpoint) QueueLen() int { return len(e.queue) }

// ReturnCredit implements CreditSink for the switch input port fed by this
// NI (the switch freed one buffer slot of VC vc). A credit for a bound VC
// can let a parked NI send again, so it wakes the NI (see Stalled); a
// credit for a free VC cannot, because binding a packet needs an Offer,
// which wakes the NI itself.
func (e *Endpoint) ReturnCredit(_ sim.Cycle, vc int) {
	v := &e.vcs[vc]
	v.credits++
	if v.pkt != nil {
		e.active.Add(e.activeID)
	}
}

// Accept implements Conduit: a flit leaves the switch toward this sink.
// The sink never refuses (the ejection port's credits bound it), so it
// returns 0.
func (e *Endpoint) Accept(now sim.Cycle, f Flit, _ sim.SwitchID) sim.Cycle {
	e.part.Add(e.charge)
	chargePacket(f, e.charge)
	e.toSink.Push(timedFlit{at: now + e.localLatency, f: f})
	e.active.Add(e.activeID)
	return 0
}

// Tick advances the NI by one cycle: consume ejected flits, bind a queued
// packet to a free injection VC, and send one flit toward the switch. It
// logs each delivery, binding and head injection as an Event.
func (e *Endpoint) Tick(now sim.Cycle) {
	// Deliver flits that reached the switch input port.
	for !e.toSwitch.Empty() && e.toSwitch.Peek().at <= now {
		tf := e.toSwitch.Pop()
		e.sw.Receive(e.inPort, int(tf.f.VC), tf.f)
	}

	// Consume ejected flits; return credits; record deliveries.
	for !e.toSink.Empty() && e.toSink.Peek().at <= now {
		tf := e.toSink.Pop()
		e.sw.ReturnCredit(e.outPort, int(tf.f.VC))
		e.FlitsConsumed++
		p := tf.f.Pkt
		if tf.f.Seq != p.arrivedFlits {
			panic(fmt.Sprintf("noc: endpoint %d packet %d flit %d arrived out of order (want %d): wormhole ordering violated",
				e.ID, p.ID, tf.f.Seq, p.arrivedFlits))
		}
		p.arrivedFlits++
		if tf.f.IsTail() {
			if int(p.arrivedFlits) != p.NumFlits {
				panic(fmt.Sprintf("noc: endpoint %d packet %d tail before all flits (%d/%d)",
					e.ID, p.ID, p.arrivedFlits, p.NumFlits))
			}
			p.DeliveredAt = now
			e.Ejected++
			*e.log = append(*e.log, Event{EP: e.activeID, Kind: EvDelivered, Pkt: p})
		}
	}

	// Bind at most one queued packet to a free injection VC.
	if len(e.queue) > 0 && e.bound < len(e.vcs) {
		for vc := range e.vcs {
			if v := &e.vcs[vc]; v.pkt == nil {
				p := e.queue[0]
				*e.log = append(*e.log, Event{EP: e.activeID, Kind: EvBound, Pkt: p})
				v.pkt, v.seq, v.flits = p, 0, int32(p.NumFlits)
				e.bound++
				copy(e.queue, e.queue[1:])
				e.queue = e.queue[:len(e.queue)-1]
				if e.room != nil {
					*e.room = true
				}
				break
			}
		}
	}

	// Send one flit (round-robin over bound VCs with credit).
	if e.bound == 0 {
		return
	}
	n := len(e.vcs)
	vc := e.rrVC - 1
	for k := 0; k < n; k++ {
		vc++
		if vc >= n {
			vc = 0
		}
		v := &e.vcs[vc]
		if v.pkt == nil || v.credits <= 0 {
			continue
		}
		p := v.pkt
		f := Flit{Pkt: p, Seq: v.seq, VC: int16(vc), Kind: flitKind(v.seq, v.flits)}
		v.credits--
		v.seq++
		if f.IsHead() {
			p.InjectedAt = now
			e.Injected++
			*e.log = append(*e.log, Event{EP: e.activeID, Kind: EvInjected, Pkt: p})
		}
		e.part.Add(e.charge)
		chargePacket(f, e.charge)
		e.FlitsSent++
		e.toSwitch.Push(timedFlit{at: now + e.localLatency, f: f})
		if v.seq == v.flits {
			v.pkt = nil
			e.bound--
		}
		e.rrVC = vc + 1
		if e.rrVC >= n {
			e.rrVC = 0
		}
		break
	}
}

// InFlightFlits returns flits inside the NI pipelines (sent to the switch
// but not yet received there, or ejected but not yet consumed).
func (e *Endpoint) InFlightFlits() int {
	return e.toSwitch.Len() + e.toSink.Len()
}

// Drained reports whether the NI holds no queued, in-flight or partially
// injected packets. The NI holds work, and belongs to its activity set,
// only while it is not drained; Tick is a provable no-op while it is.
func (e *Endpoint) Drained() bool {
	return len(e.queue) == 0 && e.InFlightFlits() == 0 && e.bound == 0
}

// Stalled reports whether the NI holds work but Tick cannot act: nothing
// is in flight toward the switch or the sink, no queued packet can bind
// (the queue is empty or every injection VC is bound), and every bound VC
// is out of credits. Tick is then a provable no-op, and only three events
// can end the state, each of which wakes the NI through its activity set:
// Offer (a packet to bind), Accept (a flit to consume) and ReturnCredit on
// a bound VC (a flit to send). The engine parks a stalled NI outside its
// active set.
func (e *Endpoint) Stalled() bool {
	if !e.toSwitch.Empty() || !e.toSink.Empty() {
		return false
	}
	if len(e.queue) == 0 && e.bound == 0 {
		return false // drained: holds no work
	}
	if len(e.queue) > 0 && e.bound < len(e.vcs) {
		return false // a queued packet can bind
	}
	for _, v := range e.vcs {
		if v.pkt != nil && v.credits > 0 {
			return false
		}
	}
	return true
}

var (
	_ Conduit    = (*Endpoint)(nil)
	_ CreditSink = (*Endpoint)(nil)
)
