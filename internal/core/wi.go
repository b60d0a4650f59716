package core

import (
	"fmt"

	"wimc/internal/noc"
	"wimc/internal/sim"
)

// WI is one wireless interface: transceiver, per-VC TX queues and
// receive-side VC bookkeeping, attached to a host switch.
type WI struct {
	Index    int
	SwitchID sim.SwitchID

	// gx, gy locate the host switch on the global mesh grid; the
	// spatial-reuse channel assignment zones WIs by these coordinates.
	gx, gy int

	fb *Fabric
	sw *noc.Switch

	outPort int // wireless output port on the host switch
	inPort  int // wireless input port on the host switch

	// Transmit side: one queue per output VC, each with txDepth capacity
	// enforced by the host switch's output credits.
	txVC    [][]txEntry
	txDepth int
	txLen   int // total flits across txVC (arbitration skip predicate)
	rrTx    int
	egress  sim.TokenBucket

	// Exclusive-MAC announcement state: flits announced per TX queue.
	announced []int

	// Exclusive-MAC sub-channel membership, set by AddWI and nil on the
	// crossbar: the transmit sub-channel and this WI's slot in its member
	// list — the handle the work-conserving turn queues index by.
	sub     *subChannel
	subSlot int

	// Receive side: per-VC state mirrored by the fabric (credit broadcasts
	// piggyback on control packets, so every transmitter shares this view).
	pktVC   map[uint64]int // PktID -> allocated input VC
	vcInUse []bool
	space   []int // free buffer slots per input VC, minus in-flight flits
	rrSrc   int   // ingress round-robin pointer (crossbar mode)

	// Receive-drain tracking for the drain-aware policy: lastDrain is the
	// last cycle this WI returned a credit (its host switch freed a buffer
	// slot), and the window counters estimate the recent drain rate in
	// flits per drainWindowCycles. Maintained unconditionally (cheap, no
	// result effect); read only under config.PolicyDrainAware.
	lastDrain     sim.Cycle
	drainWinStart sim.Cycle
	drainWinCount int
	drainRatePrev int // flits drained in the previous completed window

	// droppedPkts registers abandoned packets whose remaining flits are
	// still streaming from the host switch; Accept consumes them. Entries
	// clear when the tail arrives. Per-WI (not fabric-global) because a
	// packet's flits always funnel through one transmit WI — its route is
	// fixed at injection — and per-WI state keeps the sharded engine's
	// concurrent Accept paths single-writer.
	droppedPkts map[uint64]bool

	// shardOps points at the op log of the shard owning the host switch:
	// Accept and the fault model's acceptance paths append the
	// fabric-global halves of their work here, and the engine replays
	// every shard's log after the pipeline phase (see shard.go).
	shardOps *[]ShardOp

	// Statistics.
	TxFlits     int64
	RxFlits     int64
	Retransmits int64
	MaxTxDepth  int // peak total TX occupancy across queues
	awake       bool
}

// txEntry is one flit queued in a transceiver TX queue with its resolved
// destination WI.
type txEntry struct {
	f        noc.Flit
	dest     *WI
	reserved bool // receive space already taken (announce or retry)
	tries    int  // fault model: corrupted transmissions of this head flit
}

// TxLen returns the total TX occupancy across queues.
func (w *WI) TxLen() int { return w.txLen }

// TxCapacity returns the total TX flit capacity across queues — the
// denominator of the adaptive route selector's backlog signal.
func (w *WI) TxCapacity() int { return w.txDepth * len(w.txVC) }

// Accept implements noc.Conduit: a flit enters the TX queue of its output
// VC. The next-hop switch chosen by routing identifies the destination WI.
// Per-VC space is enforced by the host switch's output-port credits
// (initialized to the TX queue depth), so the WI never refuses a flit and
// returns 0.
func (w *WI) Accept(_ sim.Cycle, f noc.Flit, next sim.SwitchID) sim.Cycle {
	if w.fb.faults != nil && w.fb.acceptFaulted(w, f) {
		return 0 // fault model consumed the flit (dead WI / abandoned packet)
	}
	dest, ok := w.fb.wiOf[next]
	if !ok {
		panic(fmt.Sprintf("core: WI %d asked to transmit to switch %d which has no WI", w.Index, next))
	}
	if dest == w {
		panic(fmt.Sprintf("core: WI %d asked to transmit to itself", w.Index))
	}
	q := int(f.VC)
	if len(w.txVC[q]) >= w.txDepth {
		panic(fmt.Sprintf("core: WI %d TX queue %d overflow: output credits violated", w.Index, q))
	}
	w.txVC[q] = append(w.txVC[q], txEntry{f: f, dest: dest})
	w.txLen++
	if w.txLen > w.MaxTxDepth {
		w.MaxTxDepth = w.txLen
	}
	// The per-WI state above is single-writer (one switch, one shard), but
	// txTotal and the sub-channel turn bookkeeping are fabric-global: log
	// them for the replay.
	*w.shardOps = append(*w.shardOps, ShardOp{W: w, Kind: OpAccept, First: w.txLen == 1})
	return 0
}

// SetShardLog points the WI at the op log of the shard owning its host
// switch. Accept appends to it, so every WI needs one before its switch
// ticks.
func (w *WI) SetShardLog(log *[]ShardOp) { w.shardOps = log }

// popTx removes the head of TX queue q and returns one credit to the host
// switch's wireless output port.
func (w *WI) popTx(q int) txEntry {
	e := w.txVC[q][0]
	w.dropFront(q, 1)
	w.fb.txRemoved(w, q, 1)
	return e
}

// holdsTurn reports whether w holds its sub-channel's open turn.
func (w *WI) holdsTurn() bool {
	return w.sub != nil && w.sub.phase != phaseIdle && w.sub.members[w.sub.turn] == w
}

// dropFront removes the first k entries of TX queue q by copying the rest
// down, so the queue keeps its backing array: reslicing from the front
// would shrink its capacity until Accept's append reallocated it, every
// few flits for the whole run. Vacated slots are zeroed so the queue pins
// no packet.
func (w *WI) dropFront(q, k int) {
	queue := w.txVC[q]
	n := copy(queue, queue[k:])
	clear(queue[n:])
	w.txVC[q] = queue[:n]
}

// ReturnCredit implements noc.CreditSink for the wireless input port: the
// host switch freed one buffer slot of VC vc. Each return also feeds the
// drain-rate estimate the drain-aware policy sizes announcements against.
func (w *WI) ReturnCredit(now sim.Cycle, vc int) {
	w.space[vc]++
	if now-w.drainWinStart >= drainWindowCycles {
		if now-w.drainWinStart < 2*drainWindowCycles {
			w.drainRatePrev = w.drainWinCount
		} else {
			w.drainRatePrev = 0 // stale: a full window passed without drains
		}
		w.drainWinStart = now
		w.drainWinCount = 0
	}
	w.drainWinCount++
	w.lastDrain = now
}

// allocRxVC finds (or reuses) the receive VC for a packet head, reserving
// it until the tail is transmitted. It returns -1 when no VC is free.
func (w *WI) allocRxVC(pktID uint64) int {
	if vc, ok := w.pktVC[pktID]; ok {
		return vc
	}
	for vc, used := range w.vcInUse {
		if !used {
			w.vcInUse[vc] = true
			w.pktVC[pktID] = vc
			return vc
		}
	}
	return -1
}

// rxVCFor returns the VC allocated for a packet's flits, or -1.
func (w *WI) rxVCFor(pktID uint64) int {
	if vc, ok := w.pktVC[pktID]; ok {
		return vc
	}
	return -1
}

// releaseRxVC frees the VC mapping after the packet's tail is transmitted.
func (w *WI) releaseRxVC(pktID uint64) {
	if vc, ok := w.pktVC[pktID]; ok {
		w.vcInUse[vc] = false
		delete(w.pktVC, pktID)
	}
}

var (
	_ noc.Conduit    = (*WI)(nil)
	_ noc.CreditSink = (*WI)(nil)
)
