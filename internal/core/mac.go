package core

import (
	"fmt"

	"wimc/internal/config"
	"wimc/internal/energy"
	"wimc/internal/sim"
)

// launchExclusive drives the exclusive channel model: K orthogonal mm-wave
// sub-channels (config.ChannelAssign groups the WIs), each arbitrated by
// its own MAC turn sequence over its member WIs. Under the control-packet
// MAC (the paper's proposal) each turn opens with a broadcast control
// packet announcing (DestWI, PktID, NumFlits) 3-tuples — at most one tuple
// per output VC — after which exactly the announced flits are transmitted
// at the channel rate; partial packets are permitted because the PktID
// demultiplexes flits into the reserved VC at the receiver. Under the
// token MAC baseline [7] only whole packets may be transmitted; a WI
// without a complete packet buffered passes the token.
//
// A turn holder may address any WI in the package, not just members of its
// own sub-channel: receivers are multi-band and the per-VC receive-space
// reservation machinery is shared, so concurrent channels never overrun a
// receiver. Sub-channels are served in ascending channel index every
// cycle, which keeps energy accumulation deterministic and makes the K=1
// rotate fabric cycle-identical to the retained legacy single-channel MAC
// (mac_legacy.go), although the two reach each turn by different
// machines: the legacy MAC advances a fixed index, this one requeues the
// holder of a queue that keeps every member (policy.go). The engine's
// TestLegacyExclusiveEquivalence asserts it for both MAC protocols.
func (fb *Fabric) launchExclusive(now sim.Cycle) {
	anyControl := false
	for _, sub := range fb.subs {
		if len(sub.members) == 0 {
			continue // unpopulated spatial zone: dead capacity
		}
		if fb.launchSub(sub, now) {
			anyControl = true
		}
	}
	// Every receiver listens to control broadcasts; one wake pass covers
	// all sub-channels (the awake flags are read only after Launch).
	if anyControl {
		for _, w := range fb.wis {
			w.awake = true
		}
	}
}

// launchSub advances one sub-channel's MAC by one cycle, reporting whether
// it spent the cycle in a control broadcast (every receiver must wake).
func (fb *Fabric) launchSub(sub *subChannel, now sim.Cycle) bool {
	if fs := fb.faults; fs != nil && now < fs.outUntil[sub.idx] {
		// Scheduled outage: the sub-channel is frozen mid-state (an open
		// turn holds and resumes unchanged when the window ends).
		return false
	}
	if sub.phase == phaseIdle {
		if !fb.selectTurn(sub) {
			return false // work-conserving: no member has traffic
		}
		fb.startTurn(sub, now)
	}

	switch sub.phase {
	case phaseControl:
		if sub.bucket.TrySpendAt(now) {
			sub.controlLeft--
			if sub.controlLeft <= 0 {
				if sub.announceLeft > 0 {
					sub.phase = phaseData
				} else {
					fb.advanceTurn(sub)
				}
			}
		}
		return true
	case phaseData:
		src := sub.members[sub.turn]
		src.awake = true
		//lint:detorder-safe idempotent flag set per destination; no read until after Launch, so order cannot reach state
		for i := range sub.announceDests {
			fb.wis[i].awake = true
		}
		if !sub.bucket.CanSpendAt(now) {
			return false
		}
		switch {
		case fb.cfg.MAC == config.MACControlPacket &&
			fb.cfg.MACPolicyMode == config.PolicyDrainAware:
			fb.dataStepDrainAware(sub, now, src)
		case fb.cfg.MAC == config.MACControlPacket:
			fb.dataStepControlPacket(sub, now, src)
		case fb.cfg.MAC == config.MACToken:
			fb.dataStepToken(sub, now, src)
		}
		if sub.announceLeft <= 0 {
			fb.advanceTurn(sub)
		}
	}
	return false
}

// startTurn begins the turn of the sub-channel's current member: broadcast
// the control packet (or pass the token) and reserve receive space for the
// announced flits.
func (fb *Fabric) startTurn(sub *subChannel, now sim.Cycle) {
	src := sub.members[sub.turn]
	sub.announceLeft = 0
	sub.turnTx = 0
	sub.drainStall = 0
	fb.busySubs++
	clear(sub.announceDests)
	for q := range src.announced {
		src.announced[q] = 0
	}

	switch fb.cfg.MAC {
	case config.MACControlPacket:
		fb.announceControlPacket(sub, src, now)
		sub.controlLeft = fb.cfg.ControlFlits
		fb.ControlPackets++
		// Control broadcast energy (protocol overhead, not packet-attributed).
		fb.meter.AddDynamic(energy.ClassWireless,
			fb.cfg.ControlFlits*fb.cfg.FlitBits,
			fb.pjPerFlit*float64(fb.cfg.ControlFlits))
		if sub.announceLeft == 0 {
			fb.TokenPasses++
		}
	case config.MACToken:
		fb.announceToken(sub, src)
		if sub.announceLeft == 0 {
			// Token pass: one flit-time on the channel.
			sub.controlLeft = 1
			fb.TokenPasses++
		} else {
			sub.controlLeft = fb.cfg.ControlFlits
			fb.ControlPackets++
			fb.meter.AddDynamic(energy.ClassWireless,
				fb.cfg.ControlFlits*fb.cfg.FlitBits,
				fb.pjPerFlit*float64(fb.cfg.ControlFlits))
		}
	}
	sub.phase = phaseControl
}

// announceControlPacket reserves receive space for the longest announceable
// prefix of every TX queue, within the 3-tuple budget (one tuple per
// distinct (destination, packet) pair, at most one per output VC). Under
// the drain-aware policy a queue's scan that stops at the receive window,
// or reserves the whole queue while the packet's tail is still in flight
// from the host switch, goes on to announce that packet's remaining flits
// without reservations (extendAnnouncement, policy.go).
func (fb *Fabric) announceControlPacket(sub *subChannel, src *WI, now sim.Cycle) {
	drainAware := fb.cfg.MACPolicyMode == config.PolicyDrainAware
	tuples := make(map[uint64]bool, fb.cfg.VCs)
	for q, queue := range src.txVC {
		for i := range queue {
			e := &queue[i]
			f := e.f
			if !tuples[f.Pkt.ID] && len(tuples) >= fb.cfg.VCs {
				break // 3-tuple budget exhausted for this control packet
			}
			var vc int
			if f.IsHead() {
				vc = e.dest.allocRxVC(f.Pkt.ID)
				if vc < 0 {
					break // destination has no free VC
				}
			} else {
				vc = e.dest.rxVCFor(f.Pkt.ID)
				if vc < 0 {
					panic(fmt.Sprintf("core: WI %d announcing body flit of pkt %d with no rx VC",
						src.Index, f.Pkt.ID))
				}
			}
			if e.dest.space[vc] <= 0 {
				// Announce only what the receiver can hold; drain-aware, the
				// rest of this packet against the receiver's drain.
				if drainAware {
					fb.extendAnnouncement(sub, src, q, e.dest, f.Pkt.ID, tuples,
						int(f.Pkt.NumFlits)-int(f.Seq), now)
				}
				break
			}
			e.dest.space[vc]--
			e.reserved = true
			tuples[f.Pkt.ID] = true
			sub.announceDests[e.dest.Index] = true
			src.announced[q]++
			sub.announceLeft++
			if drainAware && !f.IsTail() && i == len(queue)-1 {
				// Whole queue reserved but the packet's tail is still in
				// flight from the host switch: announce the remainder so the
				// transfer can finish within this turn while flits stream in.
				fb.extendAnnouncement(sub, src, q, e.dest, f.Pkt.ID, tuples,
					int(f.Pkt.NumFlits)-int(f.Seq)-1, now)
			}
		}
	}
}

// announceToken selects a TX queue holding one fully buffered packet at its
// head (whole-packet constraint of the token MAC) and allocates its receive
// VC. Receive buffer space is NOT reserved up front — the receiver drains
// while the packet transmits, and the channel stalls when it cannot.
func (fb *Fabric) announceToken(sub *subChannel, src *WI) {
	for q := range src.txVC {
		queue := src.txVC[q]
		if len(queue) == 0 || !queue[0].f.IsHead() {
			continue
		}
		p := queue[0].f.Pkt
		run := 0
		for _, e := range queue {
			if e.f.Pkt.ID != p.ID {
				break
			}
			run++
		}
		if run != p.NumFlits {
			continue // not fully buffered yet
		}
		if queue[0].dest.allocRxVC(p.ID) < 0 {
			continue // receiver VC exhausted; try another queue
		}
		sub.tokenPktID = p.ID
		sub.tokenQueue = q
		sub.announceLeft = p.NumFlits
		sub.announceDests[queue[0].dest.Index] = true
		return
	}
}

// dataStepControlPacket transmits the next announced flit, round-robin over
// the TX queues with announced flits remaining.
func (fb *Fabric) dataStepControlPacket(sub *subChannel, now sim.Cycle, src *WI) {
	nq := len(src.txVC)
	for k := 0; k < nq; k++ {
		q := (src.rrTx + k) % nq
		if src.announced[q] == 0 {
			continue
		}
		if len(src.txVC[q]) == 0 || !src.txVC[q][0].reserved {
			panic(fmt.Sprintf("core: WI %d queue %d announced but head unreserved", src.Index, q))
		}
		if !sub.bucket.TrySpendAt(now) {
			return
		}
		if fb.transmit(now, src, q) {
			src.announced[q]--
			sub.announceLeft--
			sub.turnTx++
			sub.deficit--
		}
		src.rrTx = (q + 1) % nq
		return
	}
	// Invariant violation: announceLeft outlived the per-queue announced
	// counters. Counted — never silently absorbed — and reported by
	// CheckMACInvariants; zeroing keeps the turn machine live.
	fb.AnnounceUnderflows++
	sub.announceLeft = 0
}

// dataStepToken transmits the next flit of the granted whole packet,
// stalling the held channel when the receiver buffer is full (the
// inefficiency the control-packet MAC removes).
func (fb *Fabric) dataStepToken(sub *subChannel, now sim.Cycle, src *WI) {
	q := sub.tokenQueue
	if len(src.txVC[q]) == 0 || src.txVC[q][0].f.Pkt.ID != sub.tokenPktID {
		panic(fmt.Sprintf("core: WI %d token packet %d vanished from TX queue %d",
			src.Index, sub.tokenPktID, q))
	}
	e := &src.txVC[q][0]
	vc := e.dest.rxVCFor(e.f.Pkt.ID)
	if vc < 0 {
		panic(fmt.Sprintf("core: token packet %d lost its rx VC", e.f.Pkt.ID))
	}
	if !e.reserved {
		if e.dest.space[vc] <= 0 {
			return // receiver full: channel held idle (token MAC stall)
		}
		e.dest.space[vc]--
		e.reserved = true
	}
	if !sub.bucket.TrySpendAt(now) {
		return
	}
	if fb.transmit(now, src, q) {
		sub.announceLeft--
		sub.turnTx++
		sub.deficit--
	}
}

// advanceTurn closes the current turn. The holder keeps the head of the
// active-turn queue only while it has deficit budget (which only weighted
// grants), backlog and made forward progress this turn — a fruitless turn
// always rotates, which bounds every queued member's wait; otherwise it is
// requeued and the next selectTurn grants the new head (policy.go).
func (fb *Fabric) advanceTurn(sub *subChannel) {
	if sub.deficit <= 0 || sub.members[sub.turn].txLen == 0 || sub.turnTx == 0 {
		sub.deficit = 0
		fb.requeueTurn(sub)
	}
	sub.phase = phaseIdle
	sub.announceLeft = 0
	fb.busySubs--
}
