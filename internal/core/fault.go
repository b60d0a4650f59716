package core

// This file implements the deterministic wireless fault model
// (config.FaultModelActive): distance-scaled packet corruption with a
// bounded retry budget, scheduled sub-channel outages and permanent
// fail-stop WI failures.
//
// # PER curve
//
// Each ordered WI pair (i, j) has a per-transmission error probability
// derived from grid distance — in-package channel characterization shows
// path loss growing with WI separation, so the corruption probability
// follows a normalized quadratic path-loss curve:
//
//	per(i, j) = wireless_per × d²(i, j) / d²max
//
// where d² is the squared Euclidean grid distance between the host
// switches and d²max the largest pair distance in the package. The
// wireless_per knob is therefore the error probability of the worst pair;
// near neighbors stay nearly clean. A corrupted flit is detected by CRC at
// the receiving WI and NACKed: the flit stays queued and retransmits.
//
// # Retry budget and backoff
//
// Every corruption backs the transmitter off exponentially (capped at
// backoffCapCycles) before its next attempt — the NACK/timeout turnaround.
// Head-flit corruptions additionally consume the packet's retry budget
// (wireless_retry_limit): an uncommitted packet whose head exhausts the
// budget is abandoned cleanly — its queued flits are spliced out with
// credits and receive reservations returned, late-arriving flits are
// consumed at the transceiver, and the transmitting WI enters a degraded
// window during which the engine's failover selector routes new packets
// onto the wired-only class. Once a head flit lands, the packet is
// committed: body flits retransmit without budget (the wormhole holds a
// receive VC at the destination switch that only the tail releases, so a
// committed transfer must complete).
//
// # Fail-stop WI failures
//
// A scheduled wi-fail excises the WI at its configured cycle: any MAC turn
// it holds is cancelled (except a token turn mid-packet, which drains —
// the token MAC cannot re-grant a partial packet), every uncommitted
// packet in its TX queues is dropped, and new packets arriving at the dead
// transceiver are dropped at acceptance. Committed wormholes complete —
// fail-stop lands on packet boundaries — but every flit a dead transceiver
// sends or receives marks its packet Faulted, and the statistics collector
// counts Faulted deliveries as casualties, not goodput. Survivor WIs keep
// arbitrating: a dead member holds turns only while committed flits
// remain. The policies that queue only backlogged members dequeue it when
// its backlog drains; rotate, whose queue keeps every member, moves it to
// the tail unserved whenever it comes up (selectTurn), so the survivors'
// rotation order does not change.
//
// # Outages
//
// A scheduled outage freezes one exclusive-model sub-channel for its
// duration: launchSub returns immediately, the turn state (including an
// open turn) holds, and arbitration resumes unchanged when the window
// ends.
//
// Everything here is gated on fb.faults != nil: with wireless_per 0 and an
// empty schedule no state is allocated, no rng draw happens and no hook
// runs, keeping fault-free runs byte-identical to the fault-free engine.

import (
	"sort"

	"wimc/internal/config"
	"wimc/internal/noc"
	"wimc/internal/sim"
)

const (
	// defaultRetryLimit is the head-flit retry budget when
	// wireless_retry_limit is 0 with the fault model active.
	defaultRetryLimit = 16
	// backoffCapCycles caps the exponential per-WI retransmission backoff.
	backoffCapCycles = 64
	// degradedWindowCycles is how long a WI that exhausted a retry budget
	// is avoided by the failover selector.
	degradedWindowCycles = 2048
)

// FaultNotice describes one fault-model event for the engine (trace
// emission and watchdog bookkeeping).
type FaultNotice struct {
	Kind   string // "drop" | "retransmit" | "wi-fail"
	WI     int
	Pkt    *noc.Packet // nil for wi-fail
	Reason string      // drop cause: "retry-exhausted" | "wi-fail"
}

// faultState is the fault model's runtime state, nil when inactive.
type faultState struct {
	per        [][]float64 // per-pair transmission error probability
	retryLimit int

	events []config.FaultEvent // schedule, sorted by cycle (stable)
	nextEv int

	dead          []bool      // per WI: fail-stopped
	outUntil      []sim.Cycle // per sub-channel: outage end (exclusive model)
	backoffUntil  []sim.Cycle // per WI: no transmission before this cycle
	consecFails   []int       // per WI: consecutive corrupted transmissions
	degradedUntil []sim.Cycle // per WI: failover-avoidance window end

	onFault func(now sim.Cycle, n FaultNotice)
}

// InitFaults activates the fault model (call after every AddWI). It builds
// the per-pair PER table from grid distance, sorts the fault schedule and
// allocates the per-WI fault state. A no-op when config.FaultModelActive
// is false or fewer than two WIs exist.
func (fb *Fabric) InitFaults() {
	if !fb.cfg.FaultModelActive() || len(fb.wis) < 2 {
		return
	}
	n := len(fb.wis)
	fs := &faultState{
		retryLimit:    fb.cfg.WirelessRetryLimit,
		dead:          make([]bool, n),
		backoffUntil:  make([]sim.Cycle, n),
		consecFails:   make([]int, n),
		degradedUntil: make([]sim.Cycle, n),
		outUntil:      make([]sim.Cycle, len(fb.subs)),
	}
	if fs.retryLimit <= 0 {
		fs.retryLimit = defaultRetryLimit
	}
	for _, w := range fb.wis {
		// Abandoned-packet registries are per transmit WI (a packet's flits
		// all funnel through one WI), which keeps the sharded engine's
		// concurrent Accept paths single-writer.
		w.droppedPkts = make(map[uint64]bool)
	}

	// PER table: normalized quadratic path loss over grid distance.
	d2 := func(a, b *WI) float64 {
		dx := float64(a.gx - b.gx)
		dy := float64(a.gy - b.gy)
		return dx*dx + dy*dy
	}
	maxD2 := 0.0
	for i, a := range fb.wis {
		for _, b := range fb.wis[i+1:] {
			if d := d2(a, b); d > maxD2 {
				maxD2 = d
			}
		}
	}
	fs.per = make([][]float64, n)
	for i, a := range fb.wis {
		fs.per[i] = make([]float64, n)
		if fb.cfg.WirelessPER <= 0 || maxD2 <= 0 {
			continue
		}
		for j, b := range fb.wis {
			if i == j {
				continue
			}
			fs.per[i][j] = fb.cfg.WirelessPER * d2(a, b) / maxD2
		}
	}

	fs.events = append([]config.FaultEvent(nil), fb.cfg.FaultSchedule...)
	sort.SliceStable(fs.events, func(i, j int) bool {
		return fs.events[i].Cycle < fs.events[j].Cycle
	})
	fb.faults = fs
}

// SetFaultNotifier installs the engine's fault-event observer (trace
// emission, watchdog removal of dropped packets).
func (fb *Fabric) SetFaultNotifier(f func(now sim.Cycle, n FaultNotice)) {
	if fb.faults != nil {
		fb.faults.onFault = f
	}
}

// WIFaultAvoid reports whether the WI hosted at switch id should be routed
// around at cycle now: it is dead, or inside the degraded window that
// follows a retry-budget exhaustion. The engine's failover selector
// consults it per injection.
func (fb *Fabric) WIFaultAvoid(now sim.Cycle, id sim.SwitchID) bool {
	fs := fb.faults
	if fs == nil {
		return false
	}
	w, ok := fb.wiOf[id]
	if !ok {
		return false
	}
	return fs.dead[w.Index] || now < fs.degradedUntil[w.Index]
}

// ApplyFaults fires every scheduled fault event due at cycle now. The
// engine calls it each cycle before Launch while the fault model is
// active; with no event due it is an O(1) index comparison.
func (fb *Fabric) ApplyFaults(now sim.Cycle) {
	fs := fb.faults
	if fs == nil {
		return
	}
	for fs.nextEv < len(fs.events) && fs.events[fs.nextEv].Cycle <= now {
		ev := fs.events[fs.nextEv]
		fs.nextEv++
		switch ev.Kind {
		case config.FaultWIFail:
			fb.killWI(now, ev.WI)
		case config.FaultOutage:
			if ev.SubChannel >= 0 && ev.SubChannel < len(fs.outUntil) {
				if u := ev.Cycle + ev.Duration; u > fs.outUntil[ev.SubChannel] {
					fs.outUntil[ev.SubChannel] = u
				}
			}
		}
	}
}

// killWI fail-stops WI idx: cancel the turn it holds (unless a token turn
// is mid-packet, which must drain), drop every uncommitted packet from its
// TX queues, and mark it dead so arbitration excises it and the failover
// selector routes around it.
func (fb *Fabric) killWI(now sim.Cycle, idx int) {
	fs := fb.faults
	if idx < 0 || idx >= len(fb.wis) || fs.dead[idx] {
		return
	}
	fs.dead[idx] = true
	w := fb.wis[idx]
	if fs.onFault != nil {
		fs.onFault(now, FaultNotice{Kind: "wi-fail", WI: idx})
	}
	if sub := w.sub; w.holdsTurn() {
		// The token MAC cannot re-grant a partially transmitted packet, so
		// a committed token turn stays open and drains; every other open
		// turn is cancelled (the control-packet MAC re-announces committed
		// remainders in later turns).
		committedToken := fb.cfg.MAC == config.MACToken &&
			len(w.txVC[sub.tokenQueue]) > 0 && !w.txVC[sub.tokenQueue][0].f.IsHead()
		if !committedToken {
			for q := range w.announced {
				w.announced[q] = 0
			}
			sub.announceLeft = 0
			sub.turnTx = 0 // weighted retention must not survive the holder
			fb.advanceTurn(sub)
		}
	}
	for q := range w.txVC {
		fb.dropUncommitted(now, w, q)
	}
}

// dropUncommitted splices every uncommitted packet out of w's TX queue q,
// keeping only a committed front wormhole (head already transmitted, so
// the destination switch holds a receive VC that only the tail releases).
// Kept entries are un-reserved so the next announcement re-reserves them
// from a clean slate.
func (fb *Fabric) dropUncommitted(now sim.Cycle, w *WI, q int) {
	queue := w.txVC[q]
	keep := 0
	if len(queue) > 0 && !queue[0].f.IsHead() {
		id := queue[0].f.Pkt.ID
		for keep < len(queue) && queue[keep].f.Pkt.ID == id {
			keep++
		}
	}
	for i := 0; i < keep; i++ {
		e := &queue[i]
		if e.reserved {
			if vc := e.dest.rxVCFor(e.f.Pkt.ID); vc >= 0 {
				e.dest.space[vc]++
			}
			e.reserved = false
		}
	}
	w.txVC[q] = queue[:keep]
	for i := keep; i < len(queue); {
		j := i + 1
		for j < len(queue) && queue[j].f.Pkt == queue[i].f.Pkt {
			j++
		}
		fb.dropPacket(now, w, q, queue[i:j], "wi-fail")
		i = j
	}
	// Zero the dropped slots so the dead WI's queue pins no packet; only
	// after the loop, because dropPacket reads the runs.
	clear(queue[keep:])
}

// dropPacket abandons run, the entries of one packet that the caller cuts
// out of w's TX queue q: their receive reservations, the packet's receive
// VC and their switch credits are returned, they count as dropped flits,
// and the packet is registered as dropped for reason.
func (fb *Fabric) dropPacket(now sim.Cycle, w *WI, q int, run []txEntry, reason string) {
	p := run[0].f.Pkt
	sawTail := false
	for i := range run {
		e := &run[i]
		sawTail = sawTail || e.f.IsTail()
		if e.reserved {
			if vc := e.dest.rxVCFor(p.ID); vc >= 0 {
				e.dest.space[vc]++
			}
		}
	}
	fb.DroppedFlits += int64(len(run))
	fb.txRemoved(w, q, len(run))
	run[0].dest.releaseRxVC(p.ID)
	fb.registerDrop(now, p, w, reason, sawTail)
}

// registerDrop counts one packet abandoned in a serial phase (a WI
// failure or an exhausted retry budget) and registers it for straggler
// consumption unless its tail was already among the removed flits. It
// applies at once: logging it for the replay would move its drop trace
// record behind the retransmit records Launch writes later in the cycle.
func (fb *Fabric) registerDrop(now sim.Cycle, p *noc.Packet, w *WI, reason string, sawTail bool) {
	if !sawTail {
		w.droppedPkts[p.ID] = true
	}
	fb.Drops++
	if fs := fb.faults; fs.onFault != nil {
		fs.onFault(now, FaultNotice{Kind: "drop", WI: w.Index, Pkt: p, Reason: reason})
	}
}

// faultCorrupt handles one fault-model corruption of the head entry of
// src's TX queue q: count the retransmission, back the transmitter off,
// and — for an uncommitted head flit — consume retry budget, abandoning
// the packet when it runs out.
func (fb *Fabric) faultCorrupt(now sim.Cycle, src *WI, q int, e *txEntry) {
	fs := fb.faults
	src.Retransmits++
	e.f.Pkt.Retransmits++
	fb.Retransmits++
	if fs.onFault != nil {
		fs.onFault(now, FaultNotice{Kind: "retransmit", WI: src.Index, Pkt: e.f.Pkt})
	}
	fails := fs.consecFails[src.Index] + 1
	fs.consecFails[src.Index] = fails
	shift := fails
	if shift > 6 {
		shift = 6
	}
	wait := sim.Cycle(1) << uint(shift)
	if wait > backoffCapCycles {
		wait = backoffCapCycles
	}
	fs.backoffUntil[src.Index] = now + wait
	if !e.f.IsHead() {
		return // committed wormhole: bodies retransmit until they land
	}
	e.tries++
	if e.tries < fs.retryLimit {
		return
	}
	fs.degradedUntil[src.Index] = now + degradedWindowCycles
	fb.dropRetryExhausted(now, src, q)
}

// dropRetryExhausted abandons the uncommitted packet at the front of src's
// TX queue q after its head flit exhausted the retry budget, repairing the
// MAC announce accounting of an open turn.
func (fb *Fabric) dropRetryExhausted(now sim.Cycle, w *WI, q int) {
	queue := w.txVC[q]
	p := queue[0].f.Pkt
	k := 1
	for k < len(queue) && queue[k].f.Pkt == p {
		k++
	}
	if sub := w.sub; w.holdsTurn() {
		if fb.cfg.MAC == config.MACToken {
			if sub.tokenPktID == p.ID {
				sub.announceLeft = 0 // launchSub closes the turn this cycle
			}
		} else if a := w.announced[q]; a > 0 {
			// The announced prefix loses the dropped entries; when the queue
			// empties, any excess announced flits were this packet's
			// in-flight remainder (drain-aware extension) and vanish too.
			rem := a - k
			if k >= len(queue) || rem < 0 {
				rem = 0
			}
			sub.announceLeft -= a - rem
			w.announced[q] = rem
		}
	}
	fb.RetryExhausted++
	fb.dropPacket(now, w, q, queue[:k], "retry-exhausted")
	w.dropFront(q, k)
}

// acceptFaulted consumes flits the fault model removes at the transceiver:
// stragglers of abandoned packets still streaming from the host switch,
// and new packets arriving at a dead WI. Consumed flits return their
// switch credit immediately and count into DroppedFlits (conservation).
// Body flits of committed wormholes pass through a dead WI so the
// in-flight transfer can finish. It runs in the pipeline phase, so the
// drop counter, the drop notice and DroppedFlits go through w's op log;
// the straggler registry is per-WI and is written at once.
func (fb *Fabric) acceptFaulted(w *WI, f noc.Flit) bool {
	fs := fb.faults
	if w.droppedPkts[f.Pkt.ID] {
		fb.consumeDroppedFlit(w, f)
		return true
	}
	if fs.dead[w.Index] && f.IsHead() {
		if !f.IsTail() {
			w.droppedPkts[f.Pkt.ID] = true
		}
		*w.shardOps = append(*w.shardOps, ShardOp{W: w, Kind: OpDrop, Pkt: f.Pkt, Reason: "wi-fail"})
		fb.consumeDroppedFlit(w, f)
		return true
	}
	return false
}

// consumeDroppedFlit blackholes one flit of an abandoned packet. The
// credit return and registry delete are per-WI; the global flit counter
// goes through w's op log.
func (fb *Fabric) consumeDroppedFlit(w *WI, f noc.Flit) {
	*w.shardOps = append(*w.shardOps, ShardOp{W: w, Kind: OpConsume})
	w.sw.ReturnCredit(w.outPort, int(f.VC))
	if f.IsTail() {
		delete(w.droppedPkts, f.Pkt.ID)
	}
}
