package core

import (
	"fmt"

	"wimc/internal/config"
	"wimc/internal/sim"
)

// This file implements the turn machine shared by every MAC arbitration
// policy (config.MACPolicyMode) of the per-sub-channel exclusive MAC. Each
// sub-channel grants its next turn to the head of an O(1) active-turn
// queue, and a holder whose turn closes goes back to the tail while it
// still wants turns (Fabric.wantsTurn). The policies differ only in who
// stays queued and in what a turn may announce or retain:
//
//   - rotate: the queue keeps every member, idle ones included, so turns
//     go round the members in fixed order and an idle member's turn is a
//     bare control broadcast (or token pass) — the paper's round-robin.
//     With faults active, dead-and-drained heads move to the tail
//     unserved, so survivors keep their rotation order.
//   - skip-empty: the queue holds exactly the members with buffered TX
//     flits (enqueued on first flit arrival, WI.Accept), so idle WIs are
//     skipped without scanning and an idle channel broadcasts nothing.
//   - drain-aware: skip-empty, plus control-packet announcements sized
//     against the destination's live drain estimate, letting a turn holder
//     announce a packet's remaining flits beyond the instantaneous receive
//     window (and beyond its own TX buffer); unreserved announcements
//     reserve lazily at transmit time, and a stalled turn is cancelled
//     after a bounded wait so the channel is never held hostage.
//   - weighted: skip-empty with deficit round-robin — a granted member
//     accrues a budget proportional to its TX backlog and retains
//     consecutive turns while it has budget, backlog and forward progress.

// drainWindowCycles is the sampling window of the per-WI drain-rate
// estimate: a destination counts returned credits per window, and the
// drain-aware policy treats it as draining only while the last credit is
// at most one window old.
const drainWindowCycles = 64

// drainStallLimit is the number of consecutive wasted transmit
// opportunities (channel tokens available, no announced flit movable)
// after which a drain-aware turn cancels its unreserved remainder. It
// bounds how long an optimistic announcement can hold the sub-channel
// when the receiver stops draining or the announced flits stall upstream,
// which keeps the policy deadlock-free by the same argument as the token
// MAC's bounded stalls.
const drainStallLimit = drainWindowCycles

// selectTurn grants the head of the active-turn queue, reporting false
// when the sub-channel should stay idle: nothing is queued, so a channel
// with no member wanting turns spends nothing, or every queued member is
// fail-stopped with nothing left to drain. A dead member keeps its turns
// only while committed flits remain; once drained it moves to the tail
// unserved, so the zone keeps arbitrating among survivors in unchanged
// order (only rotate queues idle members, so only rotate meets one). A
// fresh weighted grant budgets the member's backlog, bounded by its TX
// buffer capacity, which bounds how long it can hold the channel.
func (fb *Fabric) selectTurn(sub *subChannel) bool {
	for range sub.members {
		head := sub.qHead
		if head < 0 {
			return false
		}
		w := sub.members[head]
		if fs := fb.faults; fs != nil && fs.dead[w.Index] && w.txLen == 0 {
			sub.dequeue(head)
			sub.enqueue(head)
			continue
		}
		sub.turn = head
		if fb.weighted && sub.deficit <= 0 {
			sub.deficit = w.txLen
		}
		return true
	}
	return false
}

// requeueTurn removes the finished holder from the head of the queue and
// re-enqueues it at the tail while it still wants turns, so a queued
// member waits at most one full queue round for its next turn.
func (fb *Fabric) requeueTurn(sub *subChannel) {
	slot := sub.turn
	sub.dequeue(slot)
	if fb.wantsTurn(sub.members[slot]) {
		sub.enqueue(slot)
	}
}

// drainEstimate returns how many flits dst can be expected to drain from
// its receive buffers over the next horizon cycles, based on the credits
// it returned recently: zero when the last credit is older than one
// sampling window, else the recent per-window rate scaled to the horizon.
func (fb *Fabric) drainEstimate(dst *WI, now sim.Cycle, horizon sim.Cycle) int {
	if now-dst.lastDrain > drainWindowCycles {
		return 0
	}
	rate := dst.drainRatePrev
	if dst.drainWinCount > rate {
		rate = dst.drainWinCount
	}
	return int(sim.Cycle(rate) * horizon / drainWindowCycles)
}

// cyclesPerFlit returns the whole cycles one flit-time occupies on a
// sub-channel (the transmit-horizon unit of the drain estimate).
func (fb *Fabric) cyclesPerFlit() sim.Cycle {
	if fb.chanRate <= 0 {
		return 1
	}
	cpf := sim.Cycle((sim.RateOne + fb.chanRate - 1) / fb.chanRate)
	if cpf < 1 {
		cpf = 1
	}
	return cpf
}

// extendAnnouncement announces up to remaining unreserved flits of one
// packet on TX queue q, admitting the k-th extra flit only while the
// destination's drain estimate over the turn's transmit horizon covers it
// (the drain-aware half of announceControlPacket; dataStepDrainAware
// reserves the flits lazily as credits return). The 3-tuple already
// carries the packet's flit count, so the extension costs no extra control
// space.
func (fb *Fabric) extendAnnouncement(sub *subChannel, src *WI, q int, dst *WI,
	pktID uint64, tuples map[uint64]bool, remaining int, now sim.Cycle) {
	if remaining <= 0 {
		return
	}
	if !tuples[pktID] && len(tuples) >= fb.cfg.VCs {
		return // no tuple space left to name this packet
	}
	cpf := fb.cyclesPerFlit()
	extra := 0
	for extra < remaining {
		horizon := cpf * sim.Cycle(sub.announceLeft+1)
		if fb.drainEstimate(dst, now, horizon) < extra+1 {
			break
		}
		extra++
		src.announced[q]++
		sub.announceLeft++
	}
	if extra == 0 {
		return
	}
	tuples[pktID] = true
	sub.announceDests[dst.Index] = true
	fb.DrainExtended += int64(extra)
}

// dataStepDrainAware transmits the next announced flit, round-robin over
// the TX queues with announced flits remaining. Unlike the strict variant,
// announced flits may be unreserved (reserve now if the receiver drained)
// or still in flight from the host switch (skip the queue this cycle); a
// turn that wastes drainStallLimit consecutive transmit opportunities
// cancels its unreserved remainder.
func (fb *Fabric) dataStepDrainAware(sub *subChannel, now sim.Cycle, src *WI) {
	nq := len(src.txVC)
	for k := 0; k < nq; k++ {
		q := (src.rrTx + k) % nq
		if src.announced[q] == 0 {
			continue
		}
		if len(src.txVC[q]) == 0 {
			continue // announced flits still in flight from the switch
		}
		e := &src.txVC[q][0]
		if !e.reserved {
			vc := e.dest.rxVCFor(e.f.Pkt.ID)
			if vc < 0 {
				panic(fmt.Sprintf("core: WI %d announced flit of pkt %d has no rx VC",
					src.Index, e.f.Pkt.ID))
			}
			if e.dest.space[vc] <= 0 {
				continue // receiver has not drained yet; try another queue
			}
			e.dest.space[vc]--
			e.reserved = true
		}
		if !sub.bucket.TrySpendAt(now) {
			return
		}
		if fb.transmit(now, src, q) {
			src.announced[q]--
			sub.announceLeft--
			sub.turnTx++
		}
		src.rrTx = (q + 1) % nq
		sub.drainStall = 0
		return
	}
	if sub.announceLeft <= 0 {
		// Nothing was announced in the first place (the defensive underflow
		// of the strict variant cannot arise here: announceLeft drives the
		// loop and stays in lockstep with the announced counters).
		return
	}
	// A transmit opportunity wasted: every announced queue is either empty
	// (flits in flight) or blocked on receiver space.
	sub.drainStall++
	if sub.drainStall >= drainStallLimit {
		fb.cancelTurnRemainder(sub, src)
		sub.drainStall = 0
	}
}

// cancelTurnRemainder drops the unreserved remainder of a stalled
// drain-aware turn: per queue, only the contiguous reserved prefix of the
// announced flits stays announced (those transmit unconditionally, so the
// turn terminates), and the optimistic tail is un-announced — its flits
// are re-announced in a later turn once they arrive or the receiver
// resumes draining.
func (fb *Fabric) cancelTurnRemainder(sub *subChannel, src *WI) {
	for q := range src.txVC {
		if src.announced[q] == 0 {
			continue
		}
		keep := 0
		for i := 0; i < len(src.txVC[q]) && i < src.announced[q]; i++ {
			if !src.txVC[q][i].reserved {
				break
			}
			keep++
		}
		sub.announceLeft -= src.announced[q] - keep
		src.announced[q] = keep
	}
	fb.TurnCancels++
}

// CheckMACInvariants recomputes the exclusive MAC's incrementally
// maintained protocol state and reports the first drift — the fabric-side
// sibling of noc.Switch.CheckPipelineInvariants (test and validation hook;
// the engine folds it into Engine.CheckPipelineInvariants):
//
//	AnnounceUnderflows == 0 (the dataStep fallthrough never fired)
//	busySubs == #sub-channels mid-turn (the LaunchNeeded skip predicate)
//	announceLeft == Σ announced[q] of the turn holder (control-packet MAC)
//	phaseIdle ⇒ announceLeft == 0
//	backlogged counter == #members holding TX flits (selector load signal)
//	turn-queue membership ⇔ member wants turns (every member under rotate,
//	    else buffered TX flits), or holds the open turn
//	queue links form a consistent doubly-linked list
func (fb *Fabric) CheckMACInvariants() error {
	if fb.AnnounceUnderflows > 0 {
		return fmt.Errorf("core: %d announce underflows: announceLeft outlived the announced flits",
			fb.AnnounceUnderflows)
	}
	busy := 0
	for _, sub := range fb.subs {
		if sub.phase != phaseIdle {
			busy++
		}
	}
	if fb.legacy == nil && fb.busySubs != busy {
		return fmt.Errorf("core: busySubs counter %d, %d sub-channels mid-turn", fb.busySubs, busy)
	}
	if l := fb.legacy; l != nil {
		if l.phase == phaseIdle && l.announceLeft != 0 {
			return fmt.Errorf("core: legacy MAC idle with announceLeft %d", l.announceLeft)
		}
		if fb.cfg.MAC == config.MACControlPacket && l.phase != phaseIdle {
			if sum := sumAnnounced(fb.wis[l.turn]); sum != l.announceLeft {
				return fmt.Errorf("core: legacy MAC announceLeft %d, holder announces %d",
					l.announceLeft, sum)
			}
		}
		return nil
	}
	for ci := range fb.subs {
		if err := fb.checkSubChannel(ci); err != nil {
			return err
		}
	}
	return nil
}

// checkSubChannel checks the per-sub-channel share of the MAC invariants
// for sub-channel ci alone: turn-phase/announce lockstep, the backlogged
// counter, and turn-queue consistency.
func (fb *Fabric) checkSubChannel(ci int) error {
	sub := fb.subs[ci]
	if sub.phase == phaseIdle && sub.announceLeft != 0 {
		return fmt.Errorf("core: sub-channel %d idle with announceLeft %d", ci, sub.announceLeft)
	}
	if fb.cfg.MAC == config.MACControlPacket && sub.phase != phaseIdle {
		if sum := sumAnnounced(sub.members[sub.turn]); sum != sub.announceLeft {
			return fmt.Errorf("core: sub-channel %d announceLeft %d, holder WI %d announces %d",
				ci, sub.announceLeft, sub.members[sub.turn].Index, sum)
		}
	}
	backlogged := 0
	for _, w := range sub.members {
		if w.txLen > 0 {
			backlogged++
		}
	}
	if sub.backlogged != backlogged {
		return fmt.Errorf("core: sub-channel %d backlogged counter %d, %d members hold TX flits",
			ci, sub.backlogged, backlogged)
	}
	reach := 0
	for slot := sub.qHead; slot >= 0; slot = sub.qNext[slot] {
		if !sub.inQueue[slot] {
			return fmt.Errorf("core: sub-channel %d queue reaches unlinked slot %d", ci, slot)
		}
		if next := sub.qNext[slot]; next >= 0 && sub.qPrev[next] != slot {
			return fmt.Errorf("core: sub-channel %d queue links broken at slot %d", ci, slot)
		}
		if reach++; reach > len(sub.members) {
			return fmt.Errorf("core: sub-channel %d queue cycles", ci)
		}
	}
	holder := -1
	if sub.phase != phaseIdle {
		holder = sub.turn
	}
	for slot, w := range sub.members {
		// A mid-turn holder stays queued until its turn closes, even once
		// its TX buffer drained (a drain-aware holder waits on announced
		// flits still in flight from its switch). Every other member is
		// queued exactly while it wants turns.
		if sub.inQueue[slot] != fb.wantsTurn(w) && !(slot == holder && sub.inQueue[slot]) {
			return fmt.Errorf("core: sub-channel %d slot %d (WI %d) queued=%v with %d TX flits",
				ci, slot, w.Index, sub.inQueue[slot], w.txLen)
		}
		if sub.inQueue[slot] {
			reach--
		}
	}
	if reach != 0 {
		return fmt.Errorf("core: sub-channel %d queue membership flags drifted from links", ci)
	}
	return nil
}

// sumAnnounced totals a WI's per-queue announced counters.
func sumAnnounced(w *WI) int {
	sum := 0
	for _, n := range w.announced {
		sum += n
	}
	return sum
}
