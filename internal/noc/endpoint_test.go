package noc

import (
	"testing"
	"testing/quick"

	"wimc/internal/sim"
)

// TestOfferRefusesWhenFull pins Offer's accounting and the room flag the
// traffic generator reads instead of offering to a full queue: the flag is
// set exactly while the queue has room, cleared by the Offer that fills the
// queue and set again by the Tick that binds a packet out of it.
func TestOfferRefusesWhenFull(t *testing.T) {
	o := defaultPipeOpts()
	o.queueCap = 2
	o.vcs = 1
	p := newPipe(t, o)
	var room bool
	p.src.SetRoomFlag(&room)
	if !room {
		t.Fatal("room flag clear with the queue empty")
	}
	if !p.src.Offer(mkPacket(1, 4)) || !room {
		t.Fatal("first offer refused, or it cleared the room flag")
	}
	if !p.src.Offer(mkPacket(2, 4)) {
		t.Fatal("offers within capacity refused")
	}
	if room {
		t.Fatal("room flag still set with the queue full")
	}
	if p.src.Offer(mkPacket(3, 4)) {
		t.Fatal("offer beyond capacity accepted")
	}
	if p.src.Generated != 3 || p.src.Refused != 1 {
		t.Fatalf("counters %d/%d, want 3/1", p.src.Generated, p.src.Refused)
	}
	if p.src.QueueLen() != 2 {
		t.Fatalf("queue length %d", p.src.QueueLen())
	}
	// The one injection VC takes the head packet on the first tick and holds
	// it until its four flits are sent: room again, for one packet.
	p.step()
	if !room || p.src.QueueLen() != 1 {
		t.Fatalf("after one tick: room %v, queue %d; want true, 1", room, p.src.QueueLen())
	}
	if !p.src.Offer(mkPacket(4, 4)) || room {
		t.Fatal("refilling offer refused, or the room flag survived it")
	}
	for i := 0; i < 3; i++ {
		p.step()
		if err := p.src.CheckRoomFlag(); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
	room = !room
	if p.src.CheckRoomFlag() == nil {
		t.Fatal("CheckRoomFlag accepted a flag that disagrees with the queue")
	}
}

func TestInjectionAtMostOneFlitPerCycle(t *testing.T) {
	p := newPipe(t, defaultPipeOpts())
	for i := 0; i < 4; i++ {
		p.src.Offer(mkPacket(uint64(i+1), 4))
	}
	prev := p.src.FlitsSent
	for i := 0; i < 30; i++ {
		p.step()
		sent := p.src.FlitsSent
		if sent-prev > 1 {
			t.Fatalf("NI injected %d flits in one cycle", sent-prev)
		}
		prev = sent
	}
}

func TestInjectedTimestampAndCounters(t *testing.T) {
	p := newPipe(t, defaultPipeOpts())
	pkt := mkPacket(1, 2)
	pkt.CreatedAt = 0
	p.src.Offer(pkt)
	p.run(30)
	if pkt.InjectedAt <= 0 && pkt.InjectedAt != 0 {
		t.Fatalf("injected at %d", pkt.InjectedAt)
	}
	if p.src.Injected != 1 || p.dst.Ejected != 1 {
		t.Fatalf("inject/eject counters %d/%d", p.src.Injected, p.dst.Ejected)
	}
	if p.src.FlitsSent != 2 || p.dst.FlitsConsumed != 2 {
		t.Fatalf("flit counters %d/%d", p.src.FlitsSent, p.dst.FlitsConsumed)
	}
}

// TestEventLog sends one packet through the pipe: the source NI must log
// its binding, then its head injection, on the first cycle, and the sink
// NI its delivery on the cycle it consumes the tail, each under its own
// endpoint index.
func TestEventLog(t *testing.T) {
	p := newPipe(t, defaultPipeOpts())
	pkt := mkPacket(1, 3)
	p.src.Offer(pkt)
	want := []Event{
		{EP: 0, Kind: EvBound, Pkt: pkt},
		{EP: 0, Kind: EvInjected, Pkt: pkt},
		{EP: 1, Kind: EvDelivered, Pkt: pkt},
	}
	check := func(want []Event) {
		t.Helper()
		if len(p.logged) != len(want) {
			t.Fatalf("cycle %d: logged %+v, want %+v", p.now, p.logged, want)
		}
		for i := range want {
			if p.logged[i] != want[i] {
				t.Fatalf("cycle %d: event %d = %+v, want %+v", p.now, i, p.logged[i], want[i])
			}
		}
	}
	p.step()
	check(want[:2])
	for p.dst.Ejected == 0 {
		if p.now > 30 {
			t.Fatal("packet not delivered in 30 cycles")
		}
		check(want[:2])
		p.step()
	}
	check(want)
	if pkt.DeliveredAt != p.now-1 {
		t.Fatalf("delivered at %d, logged at %d", pkt.DeliveredAt, p.now-1)
	}
}

func TestDrained(t *testing.T) {
	p := newPipe(t, defaultPipeOpts())
	if !p.src.Drained() {
		t.Fatal("fresh NI not drained")
	}
	p.src.Offer(mkPacket(1, 4))
	if p.src.Drained() {
		t.Fatal("NI with queued packet claims drained")
	}
	p.run(60)
	if !p.src.Drained() || !p.dst.Drained() {
		t.Fatal("NI not drained after delivery")
	}
}

func TestInFlightFlits(t *testing.T) {
	p := newPipe(t, defaultPipeOpts())
	p.src.Offer(mkPacket(1, 4))
	p.step()
	if p.src.InFlightFlits() == 0 {
		t.Fatal("no in-flight flit right after injection")
	}
	p.run(60)
	if p.src.InFlightFlits() != 0 || p.dst.InFlightFlits() != 0 {
		t.Fatal("in-flight flits after drain")
	}
}

// TestReassemblyAcrossRandomSizes is a property test: any mix of packet
// sizes is fully delivered, in order, with flit conservation.
func TestReassemblyAcrossRandomSizes(t *testing.T) {
	check := func(sizes []uint8) bool {
		if len(sizes) == 0 || len(sizes) > 12 {
			return true
		}
		p := newPipe(t, defaultPipeOpts())
		total := 0
		queued := 0
		for i, s := range sizes {
			flits := int(s%16) + 1
			if p.src.Offer(mkPacket(uint64(i+1), flits)) {
				total += flits
				queued++
			}
		}
		p.run(total + 16*len(sizes) + 60)
		return len(p.delivered) == queued &&
			p.dst.FlitsConsumed == int64(total) &&
			p.src.Drained() && p.dst.Drained()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalLatencyFloor(t *testing.T) {
	m := mustPart(t)
	sw := NewSwitch(0, 1, 2, 4, 32, 0, m)
	ep := NewEndpoint(0, sw, 0, 0, energyClassSwitch(), 32, 4, m)
	if ep.localLatency != 1 {
		t.Fatalf("local latency floor = %d", ep.localLatency)
	}
}

// TestEndpointAttachesItsPorts: NewEndpoint appends the switch input port
// the NI feeds and the ejection port that drains to it, after the ports
// already there. The NI is the input's credit sink and the output's
// conduit, the output starts with a buffer depth of credits, and routing
// finds the NI's endpoint through it.
func TestEndpointAttachesItsPorts(t *testing.T) {
	m := mustPart(t)
	sw := NewSwitch(0, 2, 2, 4, 32, 0, m)
	sw.AddInputPort(nil)
	sw.AddOutputPort(nil, 4)
	ep := NewEndpoint(3, sw, 1, 0, energyClassSwitch(), 32, 4, m)
	if ep.inPort != 1 || ep.outPort != 1 {
		t.Fatalf("NI ports in %d, out %d; want 1 and 1", ep.inPort, ep.outPort)
	}
	if sw.in[1].credit != CreditSink(ep) || sw.Output(1).Conduit() != Conduit(ep) {
		t.Fatal("the NI is not the credit sink and conduit of its ports")
	}
	for vc := 0; vc < sw.VCs(); vc++ {
		if got := sw.Output(1).Credits(vc); got != 4 {
			t.Fatalf("ejection VC %d starts with %d credits, want 4", vc, got)
		}
	}
	sw.SetRoutes([]sim.SwitchID{0, 0, 0, 0}, []sim.SwitchID{0})
	if port, next := sw.Route(0, 3); port != 1 || next != sim.NoSwitch {
		t.Fatalf("endpoint 3 routes to port %d, next %d; want its ejection port 1", port, next)
	}
}

// TestEndpointStalledAndCreditWake drives the source NI alone (the switch
// never ticks, so no credit comes back unless the test returns it) until
// its only bound VC is out of credits: Stalled must hold exactly then, a
// credit for a free VC must not wake the parked NI, and a credit for the
// bound VC must.
func TestEndpointStalledAndCreditWake(t *testing.T) {
	p := newPipe(t, defaultPipeOpts()) // 4 VCs, 4 credits each
	set := sim.NewActiveSet(1)
	p.src.SetShard(set, 0, &p.events)
	if p.src.Stalled() {
		t.Fatal("drained NI reported stalled")
	}
	p.src.Offer(mkPacket(1, 8)) // binds VC 0
	p.src.Offer(mkPacket(2, 1)) // binds VC 1, sends its only flit, unbinds
	if !set.Contains(0) {
		t.Fatal("Offer did not add the NI to its activity set")
	}
	if p.src.Stalled() {
		t.Fatal("NI with a bindable queued packet reported stalled")
	}
	for p.src.FlitsSent < 5 {
		if p.now > 20 {
			t.Fatal("NI never sent five flits")
		}
		if p.src.Stalled() {
			t.Fatalf("cycle %d: NI stalled with flits in flight or credits left", p.now)
		}
		p.src.Tick(p.now)
		p.now++
	}
	p.src.Tick(p.now) // hand the last flit to the switch
	p.now++
	if !p.src.Stalled() {
		t.Fatalf("bound VC 0 out of credits, nothing in flight: not stalled (credits %v)", p.src.credits)
	}
	set.Park(0)
	p.src.Tick(p.now) // a stalled NI's tick is a no-op
	if p.src.FlitsSent != 5 || !p.src.Stalled() {
		t.Fatal("a stalled NI's tick sent a flit")
	}
	p.src.ReturnCredit(p.now, 1) // packet 2's credit: VC 1 is free
	if !set.Parked(0) {
		t.Fatal("a credit for a free VC woke the NI")
	}
	if !p.src.Stalled() {
		t.Fatal("a credit for a free VC ended the stall")
	}
	p.src.ReturnCredit(p.now, 0)
	if !set.Contains(0) || set.Parked(0) {
		t.Fatal("a credit for the bound VC did not wake the parked NI")
	}
	if p.src.Stalled() {
		t.Fatal("NI with credit on its bound VC reported stalled")
	}
}
