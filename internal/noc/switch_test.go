package noc

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"wimc/internal/energy"
	"wimc/internal/sim"
)

func TestSingleFlitDelivery(t *testing.T) {
	p := newPipe(t, defaultPipeOpts())
	pkt := mkPacket(1, 1)
	pkt.CreatedAt = 0
	if !p.src.Offer(pkt) {
		t.Fatal("offer refused")
	}
	p.run(40)
	if len(p.delivered) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(p.delivered))
	}
	if pkt.DeliveredAt == 0 {
		t.Fatal("delivery timestamp missing")
	}
	if pkt.Hops != 2 {
		t.Fatalf("hops = %d, want 2 (two switch traversals)", pkt.Hops)
	}
}

// TestPipelineTiming pins the per-hop timing: 3 pipeline stages per switch
// (RC, VA, SA/ST) plus one cycle per link and NI hop.
func TestPipelineTiming(t *testing.T) {
	p := newPipe(t, defaultPipeOpts())
	pkt := mkPacket(1, 1)
	pkt.CreatedAt = 0
	p.src.Offer(pkt)
	p.run(40)
	if len(p.delivered) != 1 {
		t.Fatal("no delivery")
	}
	// Breakdown: bind+send at NI (cycle 0) → at sw0 input end of cycle 1 →
	// RC 2, VA 3, SA/ST 4 → link → at sw1 input end of 5 → RC 6, VA 7,
	// SA/ST 8 → sink consume 9.
	if pkt.DeliveredAt != 9 {
		t.Fatalf("single-flit latency = %d cycles, want 9 (3-stage pipeline x 2 hops + wires)", pkt.DeliveredAt)
	}
}

// TestWormholeStreaming checks body flits stream one per cycle behind the
// head: an N-flit packet finishes exactly N-1 cycles after the head.
func TestWormholeStreaming(t *testing.T) {
	p := newPipe(t, defaultPipeOpts())
	pkt := mkPacket(1, 4)
	p.src.Offer(pkt)
	p.run(60)
	if len(p.delivered) != 1 {
		t.Fatal("no delivery")
	}
	if pkt.DeliveredAt != 9+3 {
		t.Fatalf("4-flit tail delivered at %d, want 12", pkt.DeliveredAt)
	}
}

func TestBandwidthOneFlitPerCycle(t *testing.T) {
	// With an always-backlogged source, the pipe sustains one flit per
	// cycle end to end.
	p := newPipe(t, defaultPipeOpts())
	const packets = 10
	const flits = 8
	for i := 0; i < packets; i++ {
		if !p.src.Offer(mkPacket(uint64(i+1), flits)) {
			t.Fatal("offer refused")
		}
	}
	p.run(packets*flits + 30)
	if len(p.delivered) != packets {
		t.Fatalf("delivered %d/%d packets", len(p.delivered), packets)
	}
	if got := p.dst.FlitsConsumed; got != packets*flits {
		t.Fatalf("consumed %d flits, want %d", got, packets*flits)
	}
	// Steady-state rate ≈ 1 flit/cycle: the run length above gives ~30
	// cycles of pipeline slack; anything slower means stalls.
	span := p.delivered[packets-1].DeliveredAt - p.delivered[0].DeliveredAt
	if span > int64((packets-1)*flits+4) {
		t.Fatalf("stream span %d cycles for %d flits: pipeline stalling", span, (packets-1)*flits)
	}
}

func TestRateLimitedLink(t *testing.T) {
	// A 0.25 flits/cycle link must pace a backlogged stream to ~4
	// cycles/flit.
	o := defaultPipeOpts()
	o.linkRate = sim.RateFromFlitsPerCycle(0.25)
	p := newPipe(t, o)
	pkt := mkPacket(1, 8)
	p.src.Offer(pkt)
	p.run(120)
	if len(p.delivered) != 1 {
		t.Fatal("no delivery")
	}
	// 7 inter-flit gaps at 4 cycles each = 28 cycles of serialization on
	// top of the pipeline (the first flit rides the initial token).
	if pkt.DeliveredAt < 28 {
		t.Fatalf("rate-limited packet arrived too fast: %d cycles", pkt.DeliveredAt)
	}
}

func TestCreditBackpressureNeverOverflows(t *testing.T) {
	// Slow link + deep backlog: sw0's input buffers fill; the credit
	// protocol must keep every buffer within depth (Receive panics
	// otherwise) and eventually deliver everything.
	o := defaultPipeOpts()
	o.linkRate = sim.RateFromFlitsPerCycle(0.125)
	o.depth = 2
	p := newPipe(t, o)
	const packets = 6
	for i := 0; i < packets; i++ {
		p.src.Offer(mkPacket(uint64(i+1), 4))
	}
	p.run(600)
	if len(p.delivered) != packets {
		t.Fatalf("delivered %d/%d under backpressure", len(p.delivered), packets)
	}
}

func TestTailFreesOutputVC(t *testing.T) {
	p := newPipe(t, defaultPipeOpts())
	p.src.Offer(mkPacket(1, 2))
	p.run(40)
	// After the tail traversed, every output VC of sw0's link port must be
	// free again.
	for vc, ovc := range p.sw0.outVCs(0) {
		if ovc.holderPort != -1 {
			t.Fatalf("output VC %d still held after tail", vc)
		}
		if got := credits(p.sw0, 0, vc); got != 4 {
			t.Fatalf("output VC %d credits = %d, want 4 (all returned)", vc, got)
		}
	}
}

func TestVCsCarryConcurrentPackets(t *testing.T) {
	// Two packets bound to different NI VCs interleave over the same
	// physical link on separate virtual channels.
	p := newPipe(t, defaultPipeOpts())
	a := mkPacket(1, 6)
	b := mkPacket(2, 6)
	p.src.Offer(a)
	p.src.Offer(b)
	p.run(80)
	if len(p.delivered) != 2 {
		t.Fatalf("delivered %d/2", len(p.delivered))
	}
	// Interleaving: the second packet must finish well before a serial
	// schedule (12 flits + full pipeline twice) would allow.
	last := p.delivered[1].DeliveredAt
	if last > 9+12+4 {
		t.Fatalf("second packet at %d: no VC interleaving", last)
	}
}

func TestPhaseSplitRestrictsVCs(t *testing.T) {
	o := defaultPipeOpts()
	o.phaseSplit = true
	o.postVCs = 2
	p := newPipe(t, o)

	// Phase-0 packet: VA must never grant output VCs 2..3 (the post class).
	pkt := mkPacket(1, 4)
	p.src.Offer(pkt)
	for i := 0; i < 30; i++ {
		p.step()
		ovcs := p.sw0.outVCs(0)
		for vc := 2; vc < 4; vc++ {
			if ovcs[vc].holderPort != -1 {
				t.Fatalf("phase-0 packet granted post-wireless VC %d", vc)
			}
		}
	}
	if len(p.delivered) != 1 {
		t.Fatal("phase-0 packet not delivered")
	}
}

func TestPhaseSplitPhase1UsesUpperVCs(t *testing.T) {
	o := defaultPipeOpts()
	o.phaseSplit = true
	o.postVCs = 2
	p := newPipe(t, o)

	// Inject a phase-1 flit stream directly into sw0 as if it had crossed
	// the wireless fabric (port 0 is sw0's only input port).
	pkt := mkPacket(1, 3)
	for i := 0; i < 3; i++ {
		f := flitAt(pkt, i)
		f.Phase = 1
		f.VC = 0
		p.sw0.Receive(0, 0, f)
	}
	granted := false
	for i := 0; i < 30; i++ {
		p.step()
		ovcs := p.sw0.outVCs(0)
		for vc := 0; vc < 2; vc++ {
			if ovcs[vc].holderPort != -1 {
				t.Fatalf("phase-1 packet granted pre-wireless VC %d", vc)
			}
		}
		for vc := 2; vc < 4; vc++ {
			if ovcs[vc].holderPort != -1 {
				granted = true
			}
		}
	}
	if !granted {
		t.Fatal("phase-1 packet never granted an upper-class VC")
	}
	if len(p.delivered) != 1 {
		t.Fatalf("phase-1 packet not delivered (%d)", len(p.delivered))
	}
}

func TestSwitchAccessors(t *testing.T) {
	p := newPipe(t, defaultPipeOpts())
	// sw0 carries one input port (its NI) and two output ports (link +
	// ejection).
	if len(p.sw0.in) != 1 || len(p.sw0.out) != 2 {
		t.Fatalf("sw0 ports %d/%d, want 1/2", len(p.sw0.in), len(p.sw0.out))
	}
	if p.sw0.VCs() != 4 {
		t.Fatalf("vcs = %d", p.sw0.VCs())
	}
	if p.sw0.BufferedFlits() != 0 {
		t.Fatal("fresh switch buffers nonzero")
	}
}

// TestSwitchRoute: a hosted endpoint leaves through its ejection port;
// any other endpoint goes to its host's next hop in the packet's class row
// (class 0 when the class has no row), over the wired port toward that hop
// when a link joins them (the later of two such ports) and over the WI
// port otherwise.
func TestSwitchRoute(t *testing.T) {
	m := mustPart(t)
	sw := NewSwitch(0, 5, 2, 2, 32, 0, m)
	one, two := NewSwitch(1, 2, 2, 2, 32, 0, m), NewSwitch(2, 1, 2, 2, 32, 0, m)
	connect := func(to *Switch) (int, *Link) {
		l := NewLink(energy.ClassLinkMesh, 1, sim.RateOne, 0, 32, m)
		out := sw.AddOutputPort(l, 2)
		l.Connect(sw, out, to, to.AddInputPort(l))
		return out, l
	}
	connect(one)
	toOne, _ := connect(one) // replaces the first port toward switch 1
	toTwo, linkTwo := connect(two)
	ep := NewEndpoint(0, sw, 1, 0, energy.ClassLinkLocal, 32, 4, m)
	eject := ep.outPort

	// Endpoints 0..3 attach to switches 0..3, and endpoint 4 claims switch
	// 0 without an NI. Class 0 reaches switch 3 through switch 2; class 1
	// goes there directly, which only a WI can carry.
	host := []sim.SwitchID{0, 1, 2, 3, 0}
	sw.SetRoutes(host, []sim.SwitchID{0, 1, 2, 2}, []sim.SwitchID{0, 1, 1, 3})
	mustPanic := func(what string, class uint8, dst sim.EndpointID) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		sw.Route(class, dst)
	}
	mustPanic("a hop with no port", 1, 3)
	mustPanic("a hosted endpoint without an ejection port", 0, 4)

	wi := sw.AddOutputPort(nil, 2)
	sw.SetWIPort(wi)
	for _, tc := range []struct {
		class uint8
		dst   sim.EndpointID
		port  int
		next  sim.SwitchID
	}{
		{0, 0, eject, sim.NoSwitch},
		{1, 0, eject, sim.NoSwitch},
		{0, 1, toOne, 1},
		{0, 2, toTwo, 2},
		{1, 2, toOne, 1},
		{0, 3, toTwo, 2},
		{1, 3, wi, 3},
		{2, 3, toTwo, 2}, // no class-2 row: class 0
	} {
		if port, next := sw.Route(tc.class, tc.dst); port != tc.port || next != tc.next {
			t.Fatalf("Route(%d, %d) = port %d, next %d; want port %d, next %d",
				tc.class, tc.dst, port, next, tc.port, tc.next)
		}
	}
	if port, ok := sw.PortToward(2); !ok || port != toTwo || sw.out[port].conduit != Conduit(linkTwo) {
		t.Fatalf("PortToward(2) = %d, %v; want the port feeding the link to switch 2", port, ok)
	}
	if _, ok := sw.PortToward(3); ok {
		t.Fatal("PortToward(3) found a wired port, but no link joins switches 0 and 3")
	}
	if sw.out[eject].conduit != Conduit(ep) {
		t.Fatal("the ejection port does not feed the endpoint")
	}
}

func TestReceiveOverflowPanics(t *testing.T) {
	p := newPipe(t, defaultPipeOpts())
	pkt := mkPacket(1, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("buffer overflow did not panic")
		}
	}()
	for i := 0; i < 10; i++ { // depth is 4
		p.sw1.Receive(0, 0, flitAt(pkt, i))
	}
}

// TestReceiveOutOfSequencePanics: a VC buffer keeps no flits, only its
// packets' records and sequence counters, so Receive must refuse every
// flit but the one wormhole order makes due: a body flit that skips one,
// a body flit of no open packet, and a head while a packet is open.
func TestReceiveOutOfSequencePanics(t *testing.T) {
	for name, flits := range map[string][]int{
		"skipped flit":    {0, 2},
		"body first":      {1},
		"head mid-packet": {0, 1, 0},
	} {
		t.Run(name, func(t *testing.T) {
			p := newPipe(t, defaultPipeOpts())
			pkt := mkPacket(1, 3)
			defer func() {
				if recover() == nil {
					t.Fatalf("flits %v into one VC did not panic", flits)
				}
			}()
			for _, i := range flits {
				p.sw1.Receive(0, 0, flitAt(pkt, i))
			}
		})
	}
}

func TestSwitchEnergyPerTraversal(t *testing.T) {
	o := defaultPipeOpts()
	o.switchPJ = 2.0 // pJ/bit
	p := newPipe(t, o)
	pkt := mkPacket(1, 4)
	p.src.Offer(pkt)
	p.run(40)
	// 4 flits × 2 switches × 2 pJ/bit × 32 bits = 512 pJ.
	want := 512.0
	if got := p.meter.DynamicPJ(energyClassSwitch()); got != want {
		t.Fatalf("switch energy = %v pJ, want %v", got, want)
	}
	if pkt.EnergyPJ() < want {
		t.Fatalf("packet attribution %v pJ missing switch energy", pkt.EnergyPJ())
	}
}

// TestPacketEnergyChargedByHead sends packets of 1 to 9 flits, several in
// flight at once on different VCs, through NI, switch, link, switch and
// NI, each element charging its own per-flit energy. A packet's EnergyPJ
// is NumFlits times the sum of the five per-flit charges at delivery, and
// already from the cycle its head reaches the sink, before its tail: the
// head charges the packet for every flit, so the body never touches it.
// The meter still counts every flit, class by class.
func TestPacketEnergyChargedByHead(t *testing.T) {
	o := defaultPipeOpts()
	o.switchPJ = 0.7
	o.linkPJPerBit = 1.3
	o.niPJPerBit = 0.45
	p := newPipe(t, o)
	perFlit := p.src.charge.FP + p.sw0.charge.FP + p.link.charge.FP + p.sw1.charge.FP + p.dst.charge.FP
	var pkts []*Packet
	flits := int64(0)
	for i := 0; i < 12; i++ {
		pkt := mkPacket(uint64(i+1), 1+i%9)
		if !p.src.Offer(pkt) {
			t.Fatalf("offer %d refused", i)
		}
		pkts = append(pkts, pkt)
		flits += int64(pkt.NumFlits)
	}
	headEarly := false
	for cycle := 0; cycle < 400; cycle++ {
		p.step()
		for _, pkt := range pkts {
			if pkt.arrivedFlits == 0 {
				continue
			}
			want := float64(perFlit*int64(pkt.NumFlits)) / energy.FPScale
			if got := pkt.EnergyPJ(); got != want {
				t.Fatalf("cycle %d: packet %d (%d flits, %d arrived) carries %v pJ, want %v",
					p.now-1, pkt.ID, pkt.NumFlits, pkt.arrivedFlits, got, want)
			}
			headEarly = headEarly || int(pkt.arrivedFlits) < pkt.NumFlits
		}
	}
	if len(p.delivered) != len(pkts) || !headEarly {
		t.Fatalf("delivered %d of %d packets; a head reached the sink before its tail: %v",
			len(p.delivered), len(pkts), headEarly)
	}
	for _, c := range []struct {
		class energy.Class
		fp    int64 // per-flit charge summed over the class's elements
	}{
		{energy.ClassSwitch, p.sw0.charge.FP + p.sw1.charge.FP},
		{energy.ClassLinkMesh, p.link.charge.FP},
		{energy.ClassLinkLocal, p.src.charge.FP + p.dst.charge.FP},
	} {
		if got, want := p.meter.DynamicPJ(c.class), float64(flits*c.fp)/energy.FPScale; got != want {
			t.Errorf("meter %s = %v pJ, want %v (every flit charged)", c.class, got, want)
		}
	}
}

// TestBufferedCounterMatchesBuffers asserts the O(1) buffered counter (the
// active-set predicate) never drifts from the actual VC buffer occupancy
// while traffic flows and drains through the pipe harness.
func TestBufferedCounterMatchesBuffers(t *testing.T) {
	p := newPipe(t, defaultPipeOpts())
	for i := 0; i < 6; i++ {
		p.src.Offer(mkPacket(uint64(i+1), 5))
	}
	for cycle := 0; cycle < 80; cycle++ {
		p.step()
		for _, sw := range []*Switch{p.sw0, p.sw1} {
			want := 0
			for _, vc := range sw.ivc {
				want += vc.len()
			}
			if got := sw.BufferedFlits(); got != want {
				t.Fatalf("cycle %d: switch %d buffered counter %d, buffers hold %d",
					cycle, sw.ID, got, want)
			}
		}
	}
	if p.sw0.BufferedFlits() != 0 || p.sw1.BufferedFlits() != 0 {
		t.Fatal("pipe did not drain")
	}
}

// TestPipelineInvariantsHold is the recompute-style invariant check for the
// incrementally maintained SA/RC readiness masks and waiting counter (the
// buffered counter's sibling check is TestBufferedCounterMatchesBuffers).
// The masks are shared by the active-set and FullTick scheduling paths, so
// the engine determinism suite cannot catch a dropped mask update — this
// recomputation can. Traffic is shaped to cycle VCs through all three
// wormhole states: a rate-limited link keeps packets backed up (vcWaitVC,
// vcActive with empty and nonempty buffers) before the pipe drains back to
// idle.
func TestPipelineInvariantsHold(t *testing.T) {
	o := defaultPipeOpts()
	o.linkRate = sim.RateFromFlitsPerCycle(0.5)
	o.depth = 2
	p := newPipe(t, o)
	for i := 0; i < 6; i++ {
		p.src.Offer(mkPacket(uint64(i+1), 5))
	}
	for cycle := 0; cycle < 200; cycle++ {
		p.step()
		for _, sw := range []*Switch{p.sw0, p.sw1} {
			if err := sw.CheckPipelineInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
		}
	}
	if p.sw0.BufferedFlits() != 0 || p.sw1.BufferedFlits() != 0 {
		t.Fatal("pipe did not drain")
	}
	if len(p.delivered) != 6 {
		t.Fatalf("delivered %d packets, want 6", len(p.delivered))
	}
}

// TestNewSwitchRejectsOver64VCs: the VC bitmask limit fails loudly at
// construction, matching the output-port limit.
func TestNewSwitchRejectsOver64VCs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSwitch accepted 65 VCs")
		}
	}()
	NewSwitch(0, 0, 65, 4, 32, 0, nil)
}

// TestAddPortPastSizingPanics: NewSwitch allocates the ports and their VC
// and flit arrays once for the port count it is given, so a port beyond it,
// on either side, fails loudly rather than reallocating them, and so does
// an output port whose credits overflow their 16-bit counters.
func TestAddPortPastSizingPanics(t *testing.T) {
	mustPanic := func(what string, add func(sw *Switch)) {
		t.Helper()
		sw := NewSwitch(0, 2, 2, 4, 32, 0, nil)
		sw.AddInputPort(nil)
		sw.AddOutputPort(nil, 4)
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		add(sw)
	}
	mustPanic("a third input port", func(sw *Switch) {
		sw.AddInputPort(nil)
		sw.AddInputPort(nil)
	})
	mustPanic("a third output port", func(sw *Switch) {
		sw.AddOutputPort(nil, 4)
		sw.AddOutputPort(nil, 4)
	})
	mustPanic("32,768 credits", func(sw *Switch) { sw.AddOutputPort(nil, math.MaxInt16+1) })
}

// TestInputVCIs32Bytes: SA nomination and Receive load one input VC state
// per flit from the switch's dense array, so two of them share a cache
// line.
func TestInputVCIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(inputVC{}); got != 32 {
		t.Fatalf("inputVC is %d bytes, want 32", got)
	}
}

// TestTailReleaseTriggersVA: a tail that traverses in SA frees its output
// VC, and a waiter for that VC is granted in the same cycle's VA. With a
// single phase-0 output VC, packet B on input VC 1 can only be granted
// once packet A on input VC 0 has released it, and the VA pass that found
// nothing free has already cleared the pending flag, so only the tail's
// release can wake VA.
func TestTailReleaseTriggersVA(t *testing.T) {
	o := defaultPipeOpts()
	o.vcs = 2
	o.phaseSplit = true
	o.postVCs = 1 // phase 0 may use output VC 0 only
	p := newPipe(t, o)
	a, b := mkPacket(1, 3), mkPacket(2, 1)
	for i := 0; i < a.NumFlits; i++ {
		p.sw0.Receive(0, 0, flitAt(a, i))
	}
	p.sw0.Receive(0, 1, flitAt(b, 0))

	ivc, ovc := p.sw0.inVCs(0), &p.sw0.outVCs(0)[0]
	for i := 0; i < 20; i++ {
		aHere := ivc[0].len() > 0
		p.step()
		if !aHere || ivc[0].len() > 0 {
			if ivc[1].state == vcActive {
				t.Fatalf("cycle %d: B granted while A still holds the only output VC", p.now-1)
			}
			continue
		}
		// A's tail traversed in this cycle's SA.
		if ivc[1].state != vcActive || ovc.holderPort != 0 || ovc.holderVC != 1 {
			t.Fatalf("cycle %d: A's tail released output VC 0 but B (state %d) was not granted it in the same VA (holder %d/%d)",
				p.now-1, ivc[1].state, ovc.holderPort, ovc.holderVC)
		}
		return
	}
	t.Fatal("A's tail never left sw0")
}

// TestRouteTriggersVA: a head routed by RC at cycle t is granted at t+1
// when a VC in its class is free, even though the previous VA pass
// cleared the pending flag.
func TestRouteTriggersVA(t *testing.T) {
	p := newPipe(t, defaultPipeOpts())
	a, b := mkPacket(1, 4), mkPacket(2, 1)
	for i := 0; i < a.NumFlits; i++ {
		p.sw0.Receive(0, 0, flitAt(a, i))
	}
	ivc := p.sw0.inVCs(0)
	for ivc[0].state != vcActive {
		if p.now > 10 {
			t.Fatal("A never granted")
		}
		p.step()
	}
	if p.sw0.vaPending {
		t.Fatal("VA still pending after the pass that granted the only waiter")
	}

	p.sw0.Receive(0, 1, flitAt(b, 0))
	routed := p.now
	p.step()
	if vc := &ivc[1]; vc.state != vcWaitVC || vc.routedAt != routed {
		t.Fatalf("B state %d routedAt %d after RC at cycle %d, want vcWaitVC", vc.state, vc.routedAt, routed)
	}
	p.step()
	if ivc[1].state != vcActive {
		t.Fatalf("B routed at cycle %d with output VCs free was not granted at cycle %d", routed, routed+1)
	}
	if ivc[0].state != vcActive {
		t.Fatal("A's tail left before B was granted: the tail release, not RC, may have woken VA")
	}
}

// TestReturnCreditUnstarvesSA: a VC whose output VC ran out of credits is
// skipped by SA nomination and nominates in the first SA after
// ReturnCredit restores one credit. Only sw0 is ticked, so no credit comes
// back unless the test returns it.
func TestReturnCreditUnstarvesSA(t *testing.T) {
	o := defaultPipeOpts()
	o.depth = 2 // two buffer slots at sw0, two credits toward sw1
	p := newPipe(t, o)
	tick := func() {
		p.sw0.TickSAST(p.now)
		p.sw0.TickVA(p.now)
		p.sw0.TickRC(p.now)
		p.now++
	}
	a := mkPacket(1, 5)
	p.sw0.Receive(0, 0, flitAt(a, 0))
	p.sw0.Receive(0, 0, flitAt(a, 1))
	for p.link.InFlight() < 2 {
		if p.now > 10 {
			t.Fatal("first two flits never traversed")
		}
		tick()
	}
	ip, ivc := &p.sw0.in[0], p.sw0.inVCs(0)
	ovc := ivc[0].outVC
	if ip.starved&1 == 0 {
		t.Fatal("VC 0 not starved with its output VC at zero credits")
	}

	p.sw0.Receive(0, 0, flitAt(a, 2))
	p.sw0.Receive(0, 0, flitAt(a, 3))
	for i := 0; i < 3; i++ {
		tick()
	}
	if got := p.link.InFlight(); got != 2 {
		t.Fatalf("%d flits traversed without credit, want 2", got)
	}
	// Feed the rest of the packet one credit at a time: every returned
	// credit lets exactly one flit through in the next SA, and the tail,
	// which also leaves the output VC at zero credits, un-starves the VC
	// as it releases it.
	for sent := 3; sent <= a.NumFlits; sent++ {
		p.sw0.ReturnCredit(0, int(ovc))
		tick()
		if got := p.link.InFlight(); got != sent {
			t.Fatalf("%d flits on the link after credit %d came back, want %d (the first SA must nominate)",
				got, sent-2, sent)
		}
		if err := p.sw0.CheckPipelineInvariants(); err != nil {
			t.Fatal(err)
		}
		if next := sent + 1; next < a.NumFlits {
			p.sw0.Receive(0, 0, flitAt(a, next))
		}
	}
	if ivc[0].state != vcIdle || ip.starved != 0 || ip.buffered != 0 {
		t.Fatalf("after the tail: state %d, starved %b, %d flits buffered; want idle, unstarved, empty",
			ivc[0].state, ip.starved, ip.buffered)
	}
}

// TestPipelineInvariantsCatchDrift corrupts each event-driven predicate by
// hand and requires CheckPipelineInvariants to name the drift. The
// determinism suite cannot catch a dropped update of these predicates
// (every scheduling path shares the switch code); only recomputation can.
func TestPipelineInvariantsCatchDrift(t *testing.T) {
	t.Run("va_pending", func(t *testing.T) {
		p := newPipe(t, defaultPipeOpts())
		p.sw0.Receive(0, 0, flitAt(mkPacket(1, 2), 0))
		p.step() // RC: a waiter with every output VC free
		if err := p.sw0.CheckPipelineInvariants(); err != nil {
			t.Fatalf("before corruption: %v", err)
		}
		p.sw0.vaPending = false
		err := p.sw0.CheckPipelineInvariants()
		if err == nil || !strings.Contains(err.Error(), "VA is not pending") {
			t.Fatalf("cleared VA-pending flag with a grantable waiter not reported: %v", err)
		}
	})
	t.Run("starved", func(t *testing.T) {
		p := newPipe(t, defaultPipeOpts())
		a := mkPacket(1, 3)
		p.sw0.Receive(0, 0, flitAt(a, 0))
		p.sw0.Receive(0, 0, flitAt(a, 1))
		p.step() // RC
		p.step() // VA: active on an output VC with every credit
		if err := p.sw0.CheckPipelineInvariants(); err != nil {
			t.Fatalf("before corruption: %v", err)
		}
		p.sw0.in[0].starved |= 1
		err := p.sw0.CheckPipelineInvariants()
		if err == nil || !strings.Contains(err.Error(), "starved mask") {
			t.Fatalf("starved bit on a VC with credits not reported: %v", err)
		}
	})
}

// TestIneligibleWaiterKeepsVAPending: a VA pass that meets a waiter routed
// in the same cycle (routedAt >= now) cannot grant it yet, so it must
// leave VA pending for the next cycle's pass.
func TestIneligibleWaiterKeepsVAPending(t *testing.T) {
	p := newPipe(t, defaultPipeOpts())
	p.sw0.Receive(0, 0, flitAt(mkPacket(1, 1), 0))
	p.sw0.TickRC(5)
	p.sw0.TickVA(5)
	vc := &p.sw0.inVCs(0)[0]
	if vc.state != vcWaitVC {
		t.Fatalf("head routed at cycle 5 granted in the same cycle (state %d)", vc.state)
	}
	p.sw0.TickVA(6)
	if vc.state != vcActive {
		t.Fatalf("head routed at cycle 5 not granted at cycle 6 (state %d)", vc.state)
	}
}

// TestSwitchStalledAndCreditWake walks one switch through the stalled
// state: buffered flits whose only VC holds an output VC with no credit
// and nothing to route or allocate. Stalled must hold exactly then, and
// the first credit back on the held VC must wake a parked switch — but
// only while the holder has a flit to send. Only sw0 is ticked, so no
// credit comes back unless the test returns it.
func TestSwitchStalledAndCreditWake(t *testing.T) {
	o := defaultPipeOpts()
	o.depth = 2 // two credits toward sw1
	p := newPipe(t, o)
	set := sim.NewActiveSet(1)
	p.sw0.SetActivity(set, 0)
	tick := func() {
		p.sw0.TickSAST(p.now)
		p.sw0.TickVA(p.now)
		p.sw0.TickRC(p.now)
		p.now++
	}
	if p.sw0.Stalled() {
		t.Fatal("empty switch reported stalled")
	}
	a := mkPacket(1, 6)
	p.sw0.Receive(0, 0, flitAt(a, 0))
	if !set.Contains(0) {
		t.Fatal("Receive did not add the switch to its activity set")
	}
	if p.sw0.Stalled() {
		t.Fatal("switch with a head waiting for RC reported stalled")
	}
	p.sw0.TickRC(p.now)
	if p.sw0.Stalled() {
		t.Fatal("switch with a routed head and VA pending reported stalled")
	}
	p.sw0.Receive(0, 0, flitAt(a, 1))
	for p.link.InFlight() < 2 {
		if p.now > 10 {
			t.Fatal("first two flits never traversed")
		}
		tick()
	}
	ovc := int(p.sw0.inVCs(0)[0].outVC)

	// Empty input, output VC starved: not stalled (nothing held), and a
	// credit back must not wake the switch, since no flit can move.
	if p.sw0.Stalled() {
		t.Fatal("switch with no buffered flit reported stalled")
	}
	set.Park(0)
	p.sw0.ReturnCredit(0, ovc)
	if set.Contains(0) || !set.Parked(0) {
		t.Fatal("a credit for a holder with an empty buffer woke the switch")
	}
	tick() // flit 2 cannot arrive yet; the credit is spent by nothing
	set.Remove(0)

	p.sw0.Receive(0, 0, flitAt(a, 2))
	tick() // the returned credit carries flit 2 across; the VC starves again
	p.sw0.Receive(0, 0, flitAt(a, 3))
	if !p.sw0.Stalled() {
		t.Fatalf("flit buffered behind a starved output VC, not stalled (starved %b ready %b)",
			p.sw0.in[0].starved, p.sw0.in[0].ready)
	}
	set.Park(0)
	before := p.link.InFlight()
	tick() // a parked switch's tick is a no-op: nothing may move
	if p.link.InFlight() != before || !p.sw0.Stalled() {
		t.Fatal("a stalled switch's tick moved a flit")
	}
	p.sw0.ReturnCredit(0, ovc)
	if !set.Contains(0) || set.Parked(0) {
		t.Fatal("the first credit back on a held VC with a flit buffered did not wake the parked switch")
	}
	if p.sw0.Stalled() {
		t.Fatal("switch with a nominable VC reported stalled")
	}
	tick()
	if p.link.InFlight() != before+1 {
		t.Fatal("woken switch did not send its flit")
	}
	if err := p.sw0.CheckPipelineInvariants(); err != nil {
		t.Fatal(err)
	}
}
