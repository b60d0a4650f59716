package noc

import (
	"testing"

	"wimc/internal/energy"
	"wimc/internal/sim"
)

// pipe is a minimal two-switch network for white-box tests:
//
//	src endpoint -> sw0 -> link -> sw1 -> dst endpoint
//
// Endpoint 0 attaches to sw0, endpoint 1 to sw1. The link parameters are
// configurable per test. Both NIs log into events, which drain empties
// each cycle, as the engine does: into logged, and each delivered packet
// into delivered.
type pipe struct {
	meter     *energy.Meter
	sw0, sw1  *Switch
	link      *Link
	src, dst  *Endpoint
	events    []Event
	logged    []Event
	delivered []*Packet
	now       sim.Cycle
}

type pipeOpts struct {
	vcs, depth   int
	linkRate     sim.Rate
	linkLatency  int
	queueCap     int
	phaseSplit   bool
	postVCs      int
	switchPJ     float64
	linkPJPerBit float64
	niLatency    int // both NIs' local latency; 0 floors to 1
	niPJPerBit   float64
}

func defaultPipeOpts() pipeOpts {
	return pipeOpts{
		vcs:         4,
		depth:       4,
		linkRate:    sim.RateOne,
		linkLatency: 1,
		queueCap:    16,
	}
}

func newPipe(t *testing.T, o pipeOpts) *pipe {
	t.Helper()
	m, err := energy.NewMeter(2.5)
	if err != nil {
		t.Fatal(err)
	}
	p := &pipe{meter: m}
	part := m.NewPart()
	const flitBits = 32
	p.sw0 = NewSwitch(0, 2, o.vcs, o.depth, flitBits, o.switchPJ, part)
	p.sw1 = NewSwitch(1, 2, o.vcs, o.depth, flitBits, o.switchPJ, part)
	if o.phaseSplit {
		p.sw0.SetPhaseSplit(true, o.postVCs)
		p.sw1.SetPhaseSplit(true, o.postVCs)
	}

	p.link = NewLink(energy.ClassLinkMesh, o.linkLatency, o.linkRate, o.linkPJPerBit, flitBits, part)
	out0 := p.sw0.AddOutputPort(p.link, o.depth)
	in1 := p.sw1.AddInputPort(p.link)
	p.link.Connect(p.sw0, out0, p.sw1, in1)

	// Endpoint 0 on sw0 (source side), endpoint 1 on sw1 (sink side).
	p.src = NewEndpoint(0, p.sw0, o.niLatency, o.niPJPerBit, energy.ClassLinkLocal, flitBits, o.queueCap, part)
	p.src.SetShard(nil, 0, &p.events)
	p.dst = NewEndpoint(1, p.sw1, o.niLatency, o.niPJPerBit, energy.ClassLinkLocal, flitBits, o.queueCap, part)
	p.dst.SetShard(nil, 1, &p.events)

	// Routing: endpoint 0 is hosted by sw0 and endpoint 1 by sw1, and each
	// switch's next hop toward switch d is d (only sw0 -> sw1 is used).
	// NewEndpoint recorded the ejection ports and Connect the link's port.
	host := []sim.SwitchID{0, 1}
	row := []sim.SwitchID{0, 1}
	p.sw0.SetRoutes(host, row)
	p.sw1.SetRoutes(host, row)
	return p
}

// step advances one cycle in the engine's phase order (link bandwidth
// refills lazily inside the token bucket).
func (p *pipe) step() {
	p.sw0.TickSAST(p.now)
	p.sw1.TickSAST(p.now)
	p.sw0.TickVA(p.now)
	p.sw1.TickVA(p.now)
	p.sw0.TickRC(p.now)
	p.sw1.TickRC(p.now)
	p.link.Deliver(p.now)
	p.src.Tick(p.now)
	p.dst.Tick(p.now)
	p.drain()
	p.now++
}

// stepBoxed advances one cycle of a pipe whose link is in mailbox mode,
// in the sharded engine's P1 order: drain the parity inboxes parked at
// now-1, sweep the pipelines, park traffic due at now.
func (p *pipe) stepBoxed() {
	now := p.now
	p.link.DrainFlitInbox(now)
	p.link.DrainCreditInbox(now)
	p.sw0.TickSAST(now)
	p.sw1.TickSAST(now)
	p.sw0.TickVA(now)
	p.sw1.TickVA(now)
	p.sw0.TickRC(now)
	p.sw1.TickRC(now)
	p.link.DeliverFlitHalf(now)
	p.link.DeliverCreditHalf(now)
	p.src.Tick(now)
	p.dst.Tick(now)
	p.drain()
	p.now++
}

// drain empties the NIs' event log.
func (p *pipe) drain() {
	for _, ev := range p.events {
		if ev.Kind == EvDelivered {
			p.delivered = append(p.delivered, ev.Pkt)
		}
	}
	p.logged = append(p.logged, p.events...)
	p.events = p.events[:0]
}

func (p *pipe) run(cycles int) {
	for i := 0; i < cycles; i++ {
		p.step()
	}
}

// credits returns the downstream credits of sw's output port port, VC vc.
func credits(sw *Switch, port, vc int) int { return int(sw.outVCs(port)[vc].credits) }

// mkPacket builds a packet from endpoint 0 to endpoint 1.
func mkPacket(id uint64, flits int) *Packet {
	return &Packet{ID: id, Src: 0, Dst: 1, NumFlits: flits, Class: ClassCoreToCore}
}

// flitAt returns flit i of packet p, as an NI builds it.
func flitAt(p *Packet, i int) Flit {
	return Flit{Pkt: p, Seq: int32(i), Kind: flitKind(int32(i), int32(p.NumFlits))}
}
