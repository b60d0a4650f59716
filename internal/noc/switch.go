package noc

import (
	"fmt"
	"math/bits"

	"wimc/internal/energy"
	"wimc/internal/sim"
)

// Conduit is the downstream attachment of an output port: a wired link, an
// endpoint ejection sink, or a wireless transmit buffer.
type Conduit interface {
	// Accept takes one flit and returns the first cycle the conduit can
	// take another. next identifies the next-hop switch chosen by routing
	// (needed by the wireless fabric to address the destination WI; wired
	// links ignore it). Only a Link ever refuses a flit, for want of
	// bandwidth tokens, and its upstream output port is the only spender of
	// them, so the port caches the returned cycle and admits its next flit
	// with one compare (see Switch.TickSAST). NIs and WIs return 0: buffer
	// space is already enforced by the port's credits.
	Accept(now sim.Cycle, f Flit, next sim.SwitchID) sim.Cycle
}

// CreditSink receives buffer credits freed by a switch input VC and returns
// them to the upstream transmitter.
type CreditSink interface {
	ReturnCredit(now sim.Cycle, vc int)
}

// vcState tracks the wormhole state machine of one input VC.
type vcState uint8

const (
	vcIdle   vcState = iota // waiting for a head flit
	vcWaitVC                // routed, waiting for an output VC grant
	vcActive                // streaming flits to the allocated output VC
)

// inputVC is one virtual channel of an input port.
type inputVC struct {
	buf      flitRing
	state    vcState
	outPort  int16
	outVC    int16
	phase    uint8 // VC class of the packet currently heading the buffer
	nextHop  sim.SwitchID
	routedAt sim.Cycle // cycle the head completed route computation
}

// InputPort is the receive side of a switch port.
type InputPort struct {
	vcs    []inputVC
	credit CreditSink
	rrNom  int // round-robin pointer for switch-allocation nomination
	// buffered counts flits across this port's VC buffers; all three
	// pipeline stages skip a port with none (a VC can only nominate,
	// request or route while its buffer holds its packet's head/flits).
	buffered int
	// ready marks VCs in vcActive state with a nonempty buffer (the SA
	// nomination candidates); rcReady marks VCs in vcIdle state with a
	// nonempty buffer (a waiting head flit, the RC candidates). The masks
	// are maintained on every push, pop and state transition so the
	// pipeline stages visit exactly the VCs the full scan would act on —
	// in the same order — without touching the rest.
	ready   uint64
	rcReady uint64
	// starved marks vcActive VCs whose held output VC has no downstream
	// credit; SA nomination skips them (triggers: see TickSAST).
	starved uint64
}

// outputVC is one virtual channel of an output port.
type outputVC struct {
	holderPort int16 // input port currently holding this VC, or -1
	holderVC   int16
	credits    int16
}

// OutputPort is the transmit side of a switch port.
type OutputPort struct {
	vcs     []outputVC
	conduit Conduit
	// acceptAt is the first cycle the conduit can take a flit: what its
	// last Accept returned, 0 before the first.
	acceptAt   sim.Cycle
	maxCredits int16
	rrVA       int
	rrSA       int
}

// Credits returns the available downstream credits of output VC vc (test
// and invariant-check hook).
func (op *OutputPort) Credits(vc int) int { return int(op.vcs[vc].credits) }

// Conduit returns what the port feeds (test hook).
func (op *OutputPort) Conduit() Conduit { return op.conduit }

// CreditOccupancy returns the free downstream credits summed over the
// port's VCs and the port's total credit capacity — the wired-headroom
// load signal the adaptive route selector reads at injection time.
func (op *OutputPort) CreditOccupancy() (free, capacity int) {
	for i := range op.vcs {
		free += int(op.vcs[i].credits)
	}
	return free, len(op.vcs) * int(op.maxCredits)
}

// Switch is a wormhole virtual-channel router with a three-stage pipeline:
// route computation (RC), VC allocation (VA) and switch allocation plus
// traversal (SA/ST). One flit per output port traverses per cycle.
type Switch struct {
	ID sim.SwitchID

	vcCount int
	depth   int

	// The ports, stored by value and sized once (see NewSwitch).
	in  []InputPort
	out []OutputPort

	// Routing state (see Route), set while the system is wired and only
	// read afterwards:
	//   - rows[c]: this switch's row of route class c's next-hop table, a
	//     subslice of the table every switch shares. rows[0] always
	//     exists; a packet whose RouteClass has no row routes by class 0.
	//   - host: the switch each endpoint attaches to, one slice shared by
	//     every switch.
	//   - eject: the ejection port of each endpoint this switch hosts.
	//   - toward: the wired output port toward each neighbour.
	//   - wiPort: the output onto the wireless fabric, -1 without a WI.
	rows   [][]sim.SwitchID
	host   []sim.SwitchID
	eject  []ejectPort
	toward []wiredPort
	wiPort int16

	// phaseSplit partitions output VCs into two classes: flits in phase 0
	// (pre-wireless) may only use VCs [0, V-postVCs), flits in phase 1
	// (post-wireless) only [V-postVCs, V). Enabled on wireless topologies.
	phaseSplit bool
	postVCs    int

	// part is the meter part of the shard owning the switch; charge is the
	// dynamic energy of one flit traversal.
	part      *energy.Part
	charge    energy.Charge
	nominated []nomination

	// buffered counts flits across all input VC buffers. The switch's three
	// pipeline ticks are provably no-ops while it is zero, or while the
	// switch is Stalled.
	buffered int
	// waiting counts input VCs in vcWaitVC state; TickVA is a no-op while
	// it is zero.
	waiting int
	// vaPending is set while a VA pass might grant; TickVA returns at once
	// while it is clear (triggers: see TickVA).
	vaPending bool

	active   *sim.ActiveSet
	activeID int

	// Preallocated VC-allocation scratch (per-cycle request list, grant
	// flags and per-output-port request counts), reused to keep the hot
	// loop allocation-free.
	vaReqs    []vaReq
	vaGranted []bool
	vaPortCnt []int16
}

// ejectPort is the ejection output port of one endpoint a switch hosts.
type ejectPort struct {
	ep   sim.EndpointID
	port int16
}

// wiredPort is a switch's wired output port toward one neighbour.
type wiredPort struct {
	to   sim.SwitchID
	port int16
}

// vaReq is one per-cycle VC-allocation request: an input VC in vcWaitVC
// state and the output port it routed to.
type vaReq struct {
	ipIdx, vcIdx int16
	outPort      int16
}

// nomination is a per-cycle SA request from an input VC.
type nomination struct {
	inPort, inVC   int16
	outPort, outVC int16
}

// NewSwitch constructs a switch with no ports that charges each flit
// traversal's energy to part. Ports are added with AddInputPort and
// AddOutputPort before simulation starts; ports is how many of each the
// switch will get, so both port slices are allocated once at that size
// (more still work, by growing them). At most 64 VCs per port are
// supported (the pipeline tracks per-port VC eligibility in uint64
// bitmasks); more is a construction-time bug and panics loudly, mirroring
// config.Validate's vcs <= 64 rule for callers that build switches
// directly.
func NewSwitch(id sim.SwitchID, ports, vcs, depth, flitBits int, switchPJPerBit float64, part *energy.Part) *Switch {
	if vcs > 64 {
		panic(fmt.Sprintf("noc: switch %d: %d VCs exceeds the 64-VC bitmask limit", id, vcs))
	}
	return &Switch{
		ID:      id,
		vcCount: vcs,
		depth:   depth,
		in:      make([]InputPort, 0, ports),
		out:     make([]OutputPort, 0, ports),
		part:    part,
		charge:  energy.NewCharge(energy.ClassSwitch, flitBits, switchPJPerBit*float64(flitBits)),
		wiPort:  -1,
	}
}

// AddInputPort appends an input port whose freed buffer slots are returned
// to credit. It returns the port index. The port's VC rings share one
// slab of VCs × depth flits.
func (s *Switch) AddInputPort(credit CreditSink) int {
	p := InputPort{vcs: make([]inputVC, s.vcCount), credit: credit}
	slab := make([]Flit, s.vcCount*s.depth)
	for i := range p.vcs {
		p.vcs[i].buf = flitRing{buf: slab[i*s.depth : (i+1)*s.depth : (i+1)*s.depth]}
	}
	s.in = append(s.in, p)
	return len(s.in) - 1
}

// AddOutputPort appends an output port feeding the conduit, with the given
// initial per-VC downstream credits. It returns the port index. At most 64
// output ports are supported (SA/ST arbitration tracks ports in a uint64
// bitmask); exceeding that is a construction-time bug, not a load issue,
// so it panics loudly.
func (s *Switch) AddOutputPort(c Conduit, credits int) int {
	if len(s.out) >= 64 {
		panic(fmt.Sprintf("noc: switch %d would exceed 64 output ports (SA port bitmask)", s.ID))
	}
	p := OutputPort{vcs: make([]outputVC, s.vcCount), conduit: c, maxCredits: int16(credits)}
	for i := range p.vcs {
		p.vcs[i].holderPort = -1
		p.vcs[i].holderVC = -1
		p.vcs[i].credits = int16(credits)
	}
	s.out = append(s.out, p)
	return len(s.out) - 1
}

// SetRoutes installs the switch's routing rows. host[ep] is the switch
// endpoint ep attaches to, one slice shared by every switch. rows[c] is
// this switch's row of route class c's next-hop table (Next[ID][d] is the
// next switch toward switch d), also shared rather than copied. rows[0]
// must be non-nil; a nil or missing higher class routes by class 0.
func (s *Switch) SetRoutes(host []sim.SwitchID, rows ...[]sim.SwitchID) {
	s.host, s.rows = host, rows
}

// SetWIPort records port as the switch's output onto the wireless fabric.
func (s *Switch) SetWIPort(port int) { s.wiPort = int16(port) }

// setPortToward records port as the wired output toward neighbour next. A
// later port toward the same neighbour replaces the earlier one.
func (s *Switch) setPortToward(next sim.SwitchID, port int) {
	for i := range s.toward {
		if s.toward[i].to == next {
			s.toward[i].port = int16(port)
			return
		}
	}
	s.toward = append(s.toward, wiredPort{to: next, port: int16(port)})
}

// PortToward returns the wired output port toward next, if a wired edge
// joins them. A switch has a handful of wired neighbours, so a scan beats
// any index.
func (s *Switch) PortToward(next sim.SwitchID) (int, bool) {
	for _, w := range s.toward {
		if w.to == next {
			return int(w.port), true
		}
	}
	return 0, false
}

// setEjectPort records port as the ejection output of endpoint ep, which
// this switch hosts.
func (s *Switch) setEjectPort(ep sim.EndpointID, port int) {
	s.eject = append(s.eject, ejectPort{ep: ep, port: int16(port)})
}

// Route returns the output port a packet of route class class takes
// toward endpoint dst, and the next-hop switch (sim.NoSwitch when dst is
// hosted here). A hosted endpoint gives its ejection port. Otherwise the
// next hop is next := rows[class][host[dst]], reached over the wired port
// toward next when a wired edge joins them, else over the WI port: a hop
// between two WI switches that a wired edge also joins travels the wire.
// The deadlock check at engine build has already rejected every table
// with a hop that neither carries (route.CheckDeadlockFreeUnion).
func (s *Switch) Route(class uint8, dst sim.EndpointID) (port int, next sim.SwitchID) {
	host := s.host[dst]
	if host == s.ID {
		for _, e := range s.eject {
			if e.ep == dst {
				return int(e.port), sim.NoSwitch
			}
		}
		panic(fmt.Sprintf("noc: switch %d hosts endpoint %d but has no ejection port for it", s.ID, dst))
	}
	row := s.rows[0]
	if int(class) < len(s.rows) && s.rows[class] != nil {
		row = s.rows[class]
	}
	next = row[host]
	for _, w := range s.toward {
		if w.to == next {
			return int(w.port), next
		}
	}
	if s.wiPort < 0 {
		panic(fmt.Sprintf("noc: switch %d has no port toward switch %d", s.ID, next))
	}
	return int(s.wiPort), next
}

// SetPhaseSplit enables VC class partitioning by wireless phase, giving the
// post-wireless class the top post VCs. Post-wireless mesh segments are
// short (destination WI to final node), so a small class suffices.
func (s *Switch) SetPhaseSplit(on bool, post int) {
	if post < 1 {
		post = 1
	}
	if post >= s.vcCount {
		post = s.vcCount - 1
	}
	s.phaseSplit = on
	s.postVCs = post
}

// vcRange returns the output-VC interval a flit in the given phase may use.
func (s *Switch) vcRange(phase uint8) (lo, hi int) {
	if !s.phaseSplit {
		return 0, s.vcCount
	}
	split := s.vcCount - s.postVCs
	if phase == 0 {
		return 0, split
	}
	return split, s.vcCount
}

// SetActivity registers the switch in the engine's switch activity set
// under index id; the switch adds itself whenever a flit arrives or a
// credit lets a buffered flit move again.
func (s *Switch) SetActivity(set *sim.ActiveSet, id int) {
	s.active, s.activeID = set, id
}

// SetOutputConduit replaces the conduit of an output port (test hook: a
// test slips a recording conduit in front of a link).
func (s *Switch) SetOutputConduit(port int, c Conduit) { s.out[port].conduit = c }

// InputPorts returns the number of input ports.
func (s *Switch) InputPorts() int { return len(s.in) }

// OutputPorts returns the number of output ports.
func (s *Switch) OutputPorts() int { return len(s.out) }

// VCs returns the per-port virtual channel count.
func (s *Switch) VCs() int { return s.vcCount }

// Output returns output port i (engine/fabric wiring hook). The pointer is
// valid until the next AddOutputPort.
func (s *Switch) Output(i int) *OutputPort { return &s.out[i] }

// Receive enqueues a flit arriving on the given input port and VC. The
// credit protocol guarantees buffer space; violation indicates a simulator
// bug and panics.
func (s *Switch) Receive(port int, vc int, f Flit) {
	ip := &s.in[port]
	ivc := &ip.vcs[vc]
	if !ivc.buf.push(f) {
		panic(fmt.Sprintf("noc: switch %d port %d vc %d buffer overflow (pkt %d seq %d): credit protocol violated",
			s.ID, port, vc, f.Pkt.ID, f.Seq))
	}
	s.buffered++
	ip.buffered++
	switch ivc.state {
	case vcIdle:
		ip.rcReady |= 1 << uint(vc)
	case vcActive:
		ip.ready |= 1 << uint(vc)
	}
	s.active.Add(s.activeID)
}

// ReturnCredit restores one downstream credit to output port port, VC vc.
// The first credit back on a held VC makes its holder an SA candidate
// again; when the holder has a flit buffered, that is a wake-up, so the
// switch rejoins its active set (see Stalled).
func (s *Switch) ReturnCredit(port, vc int) {
	op := &s.out[port]
	ovc := &op.vcs[vc]
	ovc.credits++
	if ovc.credits > op.maxCredits {
		panic(fmt.Sprintf("noc: switch %d out port %d vc %d credit overflow", s.ID, port, vc))
	}
	if ovc.credits == 1 && ovc.holderPort >= 0 {
		ip := &s.in[ovc.holderPort]
		bit := uint64(1) << uint(ovc.holderVC)
		ip.starved &^= bit
		if ip.ready&bit != 0 {
			s.active.Add(s.activeID)
		}
	}
}

// TickSAST performs switch allocation and traversal: each input port
// nominates one ready VC (round-robin) whose output conduit can take a
// flit this cycle, each output port grants one nominee (round-robin) and
// the winning flit traverses to the conduit.
//
// Nomination walks ready &^ starved: a VC whose held output VC has no
// credit is never visited, exactly as the full scan skipped it before
// testing the conduit. The starved mask is set when a VA grant or a
// non-tail traversal leaves the held VC at zero credits and cleared when
// ReturnCredit restores the first credit or the tail releases the VC. The
// conduit test reads the output port's acceptAt, the cycle the conduit's
// last Accept returned, so nomination never loads a link: only a link
// refuses, and only for want of the tokens that this port alone spends.
func (s *Switch) TickSAST(now sim.Cycle) {
	if s.buffered == 0 {
		return
	}
	s.nominated = s.nominated[:0]

	// Stage 1: input-port nomination. ready &^ starved holds exactly the
	// VCs the full scan would reach the conduit test with (vcActive,
	// nonempty buffer, credit held); iterate its bits in the same
	// wrap-around order starting at rrNom.
	for ipIdx := range s.in {
		ip := &s.in[ipIdx]
		m := ip.ready &^ ip.starved
		if m == 0 {
			continue
		}
		n := len(ip.vcs)
		high := m >> uint(ip.rrNom) << uint(ip.rrNom) // bits at/after rrNom
		for pass := 0; pass < 2; pass++ {
			mm := high
			if pass == 1 {
				mm = m &^ high
			}
			nominatedHere := false
			for mm != 0 {
				vcIdx := bits.TrailingZeros64(mm)
				mm &^= 1 << uint(vcIdx)
				vc := &ip.vcs[vcIdx]
				if now < s.out[vc.outPort].acceptAt {
					continue
				}
				s.nominated = append(s.nominated, nomination{
					inPort: int16(ipIdx), inVC: int16(vcIdx),
					outPort: vc.outPort, outVC: vc.outVC,
				})
				ip.rrNom = vcIdx + 1
				if ip.rrNom >= n {
					ip.rrNom = 0
				}
				nominatedHere = true
				break
			}
			if nominatedHere {
				break
			}
		}
	}

	// Stage 2: output-port grant + traversal. Candidates are scanned in
	// place (round-robin among input VCs keyed by inPort*VCs+inVC) so the
	// hot loop allocates nothing.
	if len(s.nominated) == 0 {
		return
	}
	var portMask uint64
	for i := range s.nominated {
		portMask |= 1 << uint(s.nominated[i].outPort)
	}
	space := s.inKeySpace()
	for portMask != 0 {
		opIdx := bits.TrailingZeros64(portMask)
		portMask &^= 1 << uint(opIdx)
		op := &s.out[opIdx]
		best := -1
		bestRel := 0
		for i := range s.nominated {
			nm := &s.nominated[i]
			if int(nm.outPort) != opIdx {
				continue
			}
			rel := int(nm.inPort)*s.vcCount + int(nm.inVC) - op.rrSA
			if rel < 0 {
				rel += space
			}
			if best == -1 || rel < bestRel {
				best, bestRel = i, rel
			}
		}
		if best == -1 {
			continue
		}
		nm := s.nominated[best]
		op.rrSA = int(nm.inPort)*s.vcCount + int(nm.inVC) + 1
		s.traverse(now, nm)
	}
}

// inKeySpace sizes the SA and VA round-robin key space: input VC keys
// inPort*VCs+inVC lie in [0, space-1) and pointers (a granted key plus
// one) in [0, space), so a key's distance past a pointer wraps once.
func (s *Switch) inKeySpace() int { return len(s.in)*s.vcCount + 1 }

// traverse moves one flit from an input VC to its output conduit.
func (s *Switch) traverse(now sim.Cycle, nm nomination) {
	ip := &s.in[nm.inPort]
	vc := &ip.vcs[nm.inVC]
	op := &s.out[nm.outPort]
	ovc := &op.vcs[nm.outVC]

	f, ok := vc.buf.pop()
	if !ok {
		panic(fmt.Sprintf("noc: switch %d SA popped empty vc", s.ID))
	}
	s.buffered--
	ip.buffered--
	bit := uint64(1) << uint(nm.inVC)
	if vc.buf.len() == 0 {
		ip.ready &^= bit
	}
	f.VC = nm.outVC
	ovc.credits--
	if ovc.credits <= 0 {
		ip.starved |= bit
	}
	nextHop := vc.nextHop

	// Dynamic switch energy, attributed to the packet.
	s.part.Add(s.charge)
	f.Pkt.AddEnergy(s.charge.FP)
	if f.IsHead() {
		f.Pkt.Hops++
	}

	if f.IsTail() {
		// Release the output VC and rearm the input VC for the next packet.
		// The freed VC may satisfy a waiter in this cycle's VA.
		ovc.holderPort = -1
		ovc.holderVC = -1
		vc.state = vcIdle
		vc.outPort, vc.outVC = -1, -1
		vc.nextHop = sim.NoSwitch
		ip.ready &^= bit
		ip.starved &^= bit
		s.vaPending = true
		if vc.buf.len() > 0 {
			// The next packet's head is already waiting: RC-eligible.
			ip.rcReady |= bit
		}
	}

	op.acceptAt = op.conduit.Accept(now, f, nextHop)

	// The freed buffer slot returns upstream as a credit.
	if ip.credit != nil {
		ip.credit.ReturnCredit(now, int(nm.inVC))
	}
}

// TickVA performs VC allocation: every routed input VC waiting for an
// output VC requests one at its output port; free output VCs are granted
// round-robin. Requests are collected once into preallocated scratch (a
// request belongs to exactly one output port, so a global grant list is
// equivalent to the per-port one).
//
// The pass runs only while vaPending is set. TickRC sets it when it routes
// a head and traverse sets it when a tail releases an output VC; the pass
// clears it unless a waiter was not yet eligible (routedAt >= now). After
// a pass no eligible waiter has a free output VC in its class at its port,
// and a pass that grants nothing changes no state, so skipping passes
// while the flag is clear is exact.
func (s *Switch) TickVA(now sim.Cycle) {
	if s.buffered == 0 || s.waiting == 0 || !s.vaPending {
		return
	}
	s.vaPending = false
	if len(s.vaPortCnt) != len(s.out) {
		s.vaPortCnt = make([]int16, len(s.out))
	}
	for i := range s.vaPortCnt {
		s.vaPortCnt[i] = 0
	}
	reqs := s.vaReqs[:0]
	for ipIdx := range s.in {
		ip := &s.in[ipIdx]
		if ip.buffered == 0 {
			continue
		}
		for vcIdx := range ip.vcs {
			vc := &ip.vcs[vcIdx]
			if vc.state != vcWaitVC {
				continue
			}
			if vc.routedAt >= now {
				s.vaPending = true
				continue
			}
			reqs = append(reqs, vaReq{int16(ipIdx), int16(vcIdx), vc.outPort})
			s.vaPortCnt[vc.outPort]++
		}
	}
	s.vaReqs = reqs
	if len(reqs) == 0 {
		return
	}
	granted := s.vaGranted[:0]
	for range reqs {
		granted = append(granted, false)
	}
	s.vaGranted = granted

	space := s.inKeySpace()
	for opIdx := range s.out {
		if s.vaPortCnt[opIdx] == 0 {
			continue
		}
		op := &s.out[opIdx]
		// Rotate requesters by the round-robin pointer for fairness.
		keyOf := func(r vaReq) int { return int(r.ipIdx)*s.vcCount + int(r.vcIdx) }
		next := 0
		for ovcIdx := range op.vcs {
			ovc := &op.vcs[ovcIdx]
			if ovc.holderPort != -1 {
				continue
			}
			// Find the next ungranted requester at/after rrVA whose VC
			// class permits this output VC.
			best, bestRel := -1, 0
			for i, r := range reqs {
				if granted[i] || int(r.outPort) != opIdx {
					continue
				}
				lo, hi := s.vcRange(s.in[r.ipIdx].vcs[r.vcIdx].phase)
				if ovcIdx < lo || ovcIdx >= hi {
					continue
				}
				rel := keyOf(r) - op.rrVA
				if rel < 0 {
					rel += space
				}
				if best == -1 || rel < bestRel {
					best, bestRel = i, rel
				}
			}
			if best == -1 {
				continue
			}
			r := reqs[best]
			granted[best] = true
			vc := &s.in[r.ipIdx].vcs[r.vcIdx]
			vc.state = vcActive
			s.in[r.ipIdx].ready |= 1 << uint(r.vcIdx)
			if ovc.credits <= 0 {
				s.in[r.ipIdx].starved |= 1 << uint(r.vcIdx)
			}
			s.waiting--
			vc.outVC = int16(ovcIdx)
			ovc.holderPort = r.ipIdx
			ovc.holderVC = r.vcIdx
			next = keyOf(r) + 1
		}
		if next > 0 {
			op.rrVA = next
		}
	}
}

// TickRC performs route computation for input VCs whose head-of-buffer flit
// opens a new packet. Each routed head marks VA pending.
func (s *Switch) TickRC(now sim.Cycle) {
	if s.buffered == 0 {
		return
	}
	for ipIdx := range s.in {
		ip := &s.in[ipIdx]
		m := ip.rcReady
		for m != 0 {
			vcIdx := bits.TrailingZeros64(m)
			m &^= 1 << uint(vcIdx)
			vc := &ip.vcs[vcIdx]
			f, ok := vc.buf.peek()
			if !ok || !f.IsHead() {
				continue
			}
			port, next := s.Route(f.Pkt.RouteClass, f.Pkt.Dst)
			vc.outPort = int16(port)
			vc.nextHop = next
			vc.phase = f.Phase
			vc.state = vcWaitVC
			vc.routedAt = now
			ip.rcReady &^= 1 << uint(vcIdx)
			s.waiting++
			s.vaPending = true
		}
	}
}

// BufferedFlits returns the total flits currently buffered. The switch
// holds work, and belongs to its activity set, only while it is nonzero.
func (s *Switch) BufferedFlits() int { return s.buffered }

// Stalled reports whether the switch holds flits but none of its pipeline
// stages can act: no input VC has a head waiting for route computation
// (rcReady), no active VC with a buffered flit holds an output VC with
// credit (ready &^ starved), and no VA pass is pending while a VC waits.
// In that state TickSAST, TickVA and TickRC all return without changing
// anything, and only two events can end it, both of which wake the switch
// through its activity set: Receive (a flit arrives) and ReturnCredit (the
// first credit back on a held VC whose holder has a flit buffered). An
// output VC is freed only by this switch's own traversal, so a stalled
// switch never needs to wake for VA. The engine parks a stalled switch
// outside its active set.
func (s *Switch) Stalled() bool {
	if s.buffered == 0 || (s.vaPending && s.waiting > 0) {
		return false
	}
	for i := range s.in {
		if ip := &s.in[i]; ip.rcReady|(ip.ready&^ip.starved) != 0 {
			return false
		}
	}
	return true
}

// CheckPipelineInvariants recomputes every incrementally maintained
// pipeline predicate — the per-port ready/rcReady/starved VC bitmasks, the
// per-port and per-switch buffered counters, the waiting counter and the
// VA-pending flag — from the underlying VC state machines and credits, and
// reports the first drift. The masks, counters and flag are shared by the
// active-set and FullTick scheduling paths, so the determinism suite alone
// cannot catch a dropped update (both paths would skip the same work);
// this recompute-style check can. The invariants:
//
//	ready[vc]   ⇔ state == vcActive && buffer nonempty (SA nominee)
//	rcReady[vc] ⇔ state == vcIdle   && buffer nonempty (RC candidate)
//	starved[vc] ⇔ state == vcActive && held output VC credits <= 0
//	port.buffered   = Σ VC buffer occupancy over the port
//	switch.buffered = Σ port.buffered
//	switch.waiting  = #VCs in vcWaitVC state
//	!vaPending ⇒ no vcWaitVC VC has a free output VC in its vcRange at its port
//
// starved is set by a VA grant or traversal that leaves the held VC at
// zero credits and cleared by ReturnCredit's first credit or the tail's
// release; vaPending is set by TickRC routing a head and by a tail
// releasing an output VC, and cleared by a TickVA pass that saw every
// waiter eligible.
func (s *Switch) CheckPipelineInvariants() error {
	total, waiting := 0, 0
	for pi, ip := range s.in {
		var ready, rcReady, starved uint64
		portFlits := 0
		for vi := range ip.vcs {
			vc := &ip.vcs[vi]
			n := vc.buf.len()
			portFlits += n
			if n > 0 {
				switch vc.state {
				case vcActive:
					ready |= 1 << uint(vi)
				case vcIdle:
					rcReady |= 1 << uint(vi)
				}
			}
			switch vc.state {
			case vcActive:
				if s.out[vc.outPort].vcs[vc.outVC].credits <= 0 {
					starved |= 1 << uint(vi)
				}
			case vcWaitVC:
				waiting++
				if !s.vaPending {
					op := &s.out[vc.outPort]
					lo, hi := s.vcRange(vc.phase)
					for ovc := lo; ovc < hi; ovc++ {
						if op.vcs[ovc].holderPort == -1 {
							return fmt.Errorf("noc: switch %d port %d vc %d waits with output port %d vc %d free, but VA is not pending",
								s.ID, pi, vi, vc.outPort, ovc)
						}
					}
				}
			}
		}
		if ip.ready != ready {
			return fmt.Errorf("noc: switch %d port %d ready mask %064b, recomputed %064b",
				s.ID, pi, ip.ready, ready)
		}
		if ip.rcReady != rcReady {
			return fmt.Errorf("noc: switch %d port %d rcReady mask %064b, recomputed %064b",
				s.ID, pi, ip.rcReady, rcReady)
		}
		if ip.starved != starved {
			return fmt.Errorf("noc: switch %d port %d starved mask %064b, recomputed %064b",
				s.ID, pi, ip.starved, starved)
		}
		if ip.buffered != portFlits {
			return fmt.Errorf("noc: switch %d port %d buffered counter %d, buffers hold %d",
				s.ID, pi, ip.buffered, portFlits)
		}
		total += portFlits
	}
	if s.buffered != total {
		return fmt.Errorf("noc: switch %d buffered counter %d, buffers hold %d",
			s.ID, s.buffered, total)
	}
	if s.waiting != waiting {
		return fmt.Errorf("noc: switch %d waiting counter %d, %d VCs in vcWaitVC",
			s.ID, s.waiting, waiting)
	}
	return nil
}
