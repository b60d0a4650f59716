package core

import (
	"fmt"

	"wimc/internal/config"
	"wimc/internal/sim"
)

// legacyMAC is the pre-sub-channel exclusive MAC state: one shared medium,
// one global turn sequence over every WI. The implementation below is the
// original single-channel MAC retained verbatim; it exists — like the
// engine's full-tick reference loop — solely so the K=1 equivalence
// claim stays checkable forever: the per-sub-channel fabric with one
// channel must produce byte-identical results to this path
// (internal/engine/channels_test.go asserts it for both MAC protocols).
type legacyMAC struct {
	channel       sim.TokenBucket
	turn          int
	phase         macPhase
	controlLeft   int
	announceLeft  int
	announceDests map[int]bool // WI indexes addressed by the current turn
	tokenPktID    uint64       // token MAC: packet granted this turn
	tokenQueue    int          // token MAC: TX queue holding the granted packet
}

// SetLegacySingleChannel swaps the exclusive model onto the retained
// pre-sub-channel MAC. Call before the first Launch; only meaningful for
// single-assignment, one-channel configurations (the only ones the legacy
// path ever modeled).
func (fb *Fabric) SetLegacySingleChannel() {
	fb.legacy = &legacyMAC{
		channel:       sim.NewTokenBucket(fb.chanRate),
		announceDests: make(map[int]bool),
	}
}

// launchExclusiveLegacy drives the single shared mm-wave channel. WIs take
// turns in numbering order; the MAC semantics are documented on
// launchExclusive (this is its single-channel ancestor).
func (fb *Fabric) launchExclusiveLegacy(now sim.Cycle) {
	l := fb.legacy
	if l.phase == phaseIdle {
		fb.startTurnLegacy()
	}

	switch l.phase {
	case phaseControl:
		// Every receiver listens to control broadcasts.
		for _, w := range fb.wis {
			w.awake = true
		}
		if l.channel.TrySpendAt(now) {
			l.controlLeft--
			if l.controlLeft <= 0 {
				if l.announceLeft > 0 {
					l.phase = phaseData
				} else {
					fb.advanceTurnLegacy()
				}
			}
		}
	case phaseData:
		src := fb.wis[l.turn]
		src.awake = true
		//lint:detorder-safe idempotent flag set per destination; no read until after Launch, so order cannot reach state
		for i := range l.announceDests {
			fb.wis[i].awake = true
		}
		if !l.channel.CanSpendAt(now) {
			return
		}
		switch fb.cfg.MAC {
		case config.MACControlPacket:
			fb.dataStepControlPacketLegacy(now, src)
		case config.MACToken:
			fb.dataStepTokenLegacy(now, src)
		}
		if l.announceLeft <= 0 {
			fb.advanceTurnLegacy()
		}
	}
}

// startTurnLegacy begins the turn of fb.wis[l.turn].
func (fb *Fabric) startTurnLegacy() {
	l := fb.legacy
	src := fb.wis[l.turn]
	l.announceLeft = 0
	clear(l.announceDests)
	for q := range src.announced {
		src.announced[q] = 0
	}

	switch fb.cfg.MAC {
	case config.MACControlPacket:
		fb.announceControlPacketLegacy(src)
		l.controlLeft = fb.cfg.ControlFlits
		fb.ControlPackets++
		// Control broadcast energy (protocol overhead, not packet-attributed).
		fb.part.Add(fb.controlCharge)
		if l.announceLeft == 0 {
			fb.TokenPasses++
		}
	case config.MACToken:
		fb.announceTokenLegacy(src)
		if l.announceLeft == 0 {
			// Token pass: one flit-time on the channel.
			l.controlLeft = 1
			fb.TokenPasses++
		} else {
			l.controlLeft = fb.cfg.ControlFlits
			fb.ControlPackets++
			fb.part.Add(fb.controlCharge)
		}
	}
	l.phase = phaseControl
}

// announceControlPacketLegacy reserves receive space for the longest
// announceable prefix of every TX queue, within the 3-tuple budget.
func (fb *Fabric) announceControlPacketLegacy(src *WI) {
	l := fb.legacy
	tuples := make(map[uint64]bool, fb.cfg.VCs)
	for q := range src.txVC {
	queue:
		for i := range src.txVC[q] {
			e := &src.txVC[q][i]
			f := e.f
			if !tuples[f.Pkt.ID] && len(tuples) >= fb.cfg.VCs {
				break // 3-tuple budget exhausted for this control packet
			}
			var vc int
			if f.IsHead() {
				vc = e.dest.allocRxVC(f.Pkt.ID)
				if vc < 0 {
					break queue // destination has no free VC
				}
			} else {
				vc = e.dest.rxVCFor(f.Pkt.ID)
				if vc < 0 {
					panic(fmt.Sprintf("core: WI %d announcing body flit of pkt %d with no rx VC",
						src.Index, f.Pkt.ID))
				}
			}
			if e.dest.space[vc] <= 0 {
				break queue // announce only what the receiver can hold
			}
			e.dest.space[vc]--
			e.reserved = true
			tuples[f.Pkt.ID] = true
			l.announceDests[e.dest.Index] = true
			src.announced[q]++
			l.announceLeft++
		}
	}
}

// announceTokenLegacy selects a TX queue holding one fully buffered packet
// at its head and allocates its receive VC.
func (fb *Fabric) announceTokenLegacy(src *WI) {
	l := fb.legacy
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
		l.tokenPktID = p.ID
		l.tokenQueue = q
		l.announceLeft = p.NumFlits
		l.announceDests[queue[0].dest.Index] = true
		return
	}
}

// dataStepControlPacketLegacy transmits the next announced flit.
func (fb *Fabric) dataStepControlPacketLegacy(now sim.Cycle, src *WI) {
	l := fb.legacy
	nq := len(src.txVC)
	for k := 0; k < nq; k++ {
		q := (src.rrTx + k) % nq
		if src.announced[q] == 0 {
			continue
		}
		if len(src.txVC[q]) == 0 || !src.txVC[q][0].reserved {
			panic(fmt.Sprintf("core: WI %d queue %d announced but head unreserved", src.Index, q))
		}
		if !l.channel.TrySpendAt(now) {
			return
		}
		if fb.transmit(now, src, q) {
			src.announced[q]--
			l.announceLeft--
		}
		src.rrTx = (q + 1) % nq
		return
	}
	// Invariant violation: announceLeft outlived the per-queue announced
	// counters. Counted — never silently absorbed — and reported by
	// CheckMACInvariants; zeroing keeps the turn machine live.
	fb.AnnounceUnderflows++
	l.announceLeft = 0
}

// dataStepTokenLegacy transmits the next flit of the granted whole packet.
func (fb *Fabric) dataStepTokenLegacy(now sim.Cycle, src *WI) {
	l := fb.legacy
	q := l.tokenQueue
	if len(src.txVC[q]) == 0 || src.txVC[q][0].f.Pkt.ID != l.tokenPktID {
		panic(fmt.Sprintf("core: WI %d token packet %d vanished from TX queue %d",
			src.Index, l.tokenPktID, q))
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
	if !l.channel.TrySpendAt(now) {
		return
	}
	if fb.transmit(now, src, q) {
		l.announceLeft--
	}
}

// advanceTurnLegacy hands the channel to the next WI in sequence.
func (fb *Fabric) advanceTurnLegacy() {
	l := fb.legacy
	l.turn = (l.turn + 1) % len(fb.wis)
	l.phase = phaseIdle
	l.announceLeft = 0
}
