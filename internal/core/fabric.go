package core

import (
	"fmt"
	"math/bits"

	"wimc/internal/config"
	"wimc/internal/energy"
	"wimc/internal/noc"
	"wimc/internal/sim"
)

// macPhase is the exclusive-channel MAC state.
type macPhase uint8

const (
	phaseIdle macPhase = iota
	phaseControl
	phaseData
)

// delivery is a wireless flit in flight to a destination WI.
type delivery struct {
	at   sim.Cycle
	dest *WI
	vc   int
	f    noc.Flit
}

// Fabric coordinates every wireless interface in the package: channel
// arbitration (per the configured channel model and MAC), flit delivery,
// receive-space accounting and transceiver power gating.
type Fabric struct {
	cfg config.Config
	rng *sim.Rand

	wis  []*WI
	wiOf map[sim.SwitchID]*WI

	// Wireless energy is charged in serial phases only (Launch), to the
	// meter's root part: flitCharge per transmitted flit, controlCharge
	// per control-packet broadcast.
	part          *energy.Part
	flitCharge    energy.Charge
	controlCharge energy.Charge

	flitErrProb float64
	extraLat    sim.Cycle

	// pending holds the flits in flight to their receivers. A cycle can
	// launch several (one per sub-channel, or per crossbar destination),
	// so it is the zero Queue, grown on demand, not a ring sized by its
	// latency.
	pending sim.Queue[delivery]
	rrDst   int // rotates the destination service order (crossbar)

	// Active-set scheduling state: txTotal counts flits across every WI TX
	// queue (the crossbar launch predicate), lastLaunch is the last cycle
	// Launch actually ran, and launchedScratch is the per-cycle crossbar
	// "already transmitted" marker, preallocated.
	txTotal         int
	lastLaunch      sim.Cycle
	launchedScratch []bool

	// headIdx is the crossbar launch's per-destination head index, rebuilt
	// by every crossbar Launch (see indexHeads): row d, (len(wis)+63)/64
	// words long, has bit s set when some TX queue of WI s has its head
	// flit addressed to WI d.
	headIdx []uint64

	// Exclusive-channel fabric: chanRate is the per-sub-channel token rate
	// and subs the sub-channels, made empty by NewFabric; AddWI appends
	// each WI to the member list and turn queue of the sub-channel the
	// configured assignment gives it. legacy, when non-nil, swaps in the
	// retained pre-sub-channel MAC, the reference
	// TestLegacyExclusiveEquivalence compares the K=1 fabric against.
	chanRate sim.Rate
	subs     []*subChannel
	legacy   *legacyMAC

	// Turn arbitration (config.MACPolicyMode, see policy.go): every policy
	// grants turns from the sub-channels' active-turn queues. rotate keeps
	// every member queued, idle or not, so an idle sub-channel still opens
	// a turn (a control broadcast or a token pass) every time it frees;
	// weighted gives fresh grants a deficit budget. busySubs counts
	// sub-channels currently mid-turn (not phaseIdle): without rotate, a
	// fabric with no buffered flits and no open turn provably does
	// nothing, so LaunchNeeded can skip it.
	rotate   bool
	weighted bool
	busySubs int

	// faults is the deterministic fault model (see fault.go), nil — with
	// zero cost and zero rng draws — unless config.FaultModelActive.
	faults *faultState

	// Statistics.
	ControlPackets int64
	TokenPasses    int64
	Retransmits    int64
	AwakeCycles    int64
	SleepCycles    int64
	Launched       int64
	// DrainExtended counts flits announced beyond the instantaneous
	// receive window (drain-aware policy); TurnCancels counts turns cut
	// short because the receiver stopped draining; AnnounceUnderflows
	// counts MAC invariant violations (announceLeft outliving the
	// announced flits) — always zero on a healthy fabric, checked by
	// CheckMACInvariants.
	DrainExtended      int64
	TurnCancels        int64
	AnnounceUnderflows int64
	// Fault-model statistics: Drops counts packets abandoned by the fault
	// model (retry exhaustion, fail-stop WI failures), RetryExhausted the
	// subset dropped for an exhausted head-flit retry budget, and
	// DroppedFlits every flit the model removed from the fabric (splices,
	// stragglers and dead-transceiver arrivals) — the conservation-check
	// complement of the removed packets.
	Drops          int64
	RetryExhausted int64
	DroppedFlits   int64
}

// subChannel is one orthogonal mm-wave sub-channel of the exclusive
// fabric: a member group (its MAC turn sequence, in WI-index order), a
// token bucket at the per-transceiver rate, and the turn-machine state the
// pre-sub-channel fabric kept globally. Sub-channels arbitrate
// independently, so up to K transmissions proceed concurrently; a member
// may address any WI in the package (receivers are multi-band).
type subChannel struct {
	idx     int // position in Fabric.subs (fault-model outage lookup)
	members []*WI
	bucket  sim.TokenBucket

	turn         int // index into members
	phase        macPhase
	controlLeft  int
	announceLeft int
	// announceDests holds the fabric WI indexes addressed by the current
	// turn (awake gating); ranged only for order-independent flag setting.
	announceDests map[int]bool
	tokenPktID    uint64 // token MAC: packet granted this turn
	tokenQueue    int    // token MAC: TX queue holding the granted packet

	// Active-turn queue: an intrusive doubly linked list over member slots
	// whose head is granted the next turn. It holds the members that want
	// turns (Fabric.wantsTurn): under rotate every member, in rotation
	// order; under the other policies exactly the members with buffered TX
	// flits, so turn selection skips idle WIs in O(1). A holder keeps its
	// place until its turn closes. qHead / qTail are member slots, -1 when
	// empty.
	qNext, qPrev []int
	inQueue      []bool
	qHead, qTail int

	// Deficit round-robin state: the holder's remaining transmission
	// budget (only weighted grants one; under every other policy it stays
	// non-positive, so the holder is requeued after every turn) and the
	// flits it moved this turn (retention requires forward progress, which
	// bounds starvation).
	deficit int
	turnTx  int

	// Drain-aware state: consecutive transmit opportunities the open turn
	// wasted because no announced flit could move (receiver not draining /
	// flits still in flight); the turn is cancelled at drainStallLimit.
	drainStall int

	// backlogged counts members with buffered TX flits (0↔1 txLen
	// transitions) — the sub-channel contention signal of the adaptive
	// route selector, equal to the turn-queue length under every policy
	// but rotate, whose queue holds every member.
	backlogged int
}

// enqueue appends member slot to the active-turn queue (idempotent, O(1)).
func (sub *subChannel) enqueue(slot int) {
	if sub.inQueue[slot] {
		return
	}
	sub.inQueue[slot] = true
	sub.qNext[slot] = -1
	sub.qPrev[slot] = sub.qTail
	if sub.qTail >= 0 {
		sub.qNext[sub.qTail] = slot
	} else {
		sub.qHead = slot
	}
	sub.qTail = slot
}

// dequeue unlinks member slot from the active-turn queue (idempotent, O(1)).
func (sub *subChannel) dequeue(slot int) {
	if !sub.inQueue[slot] {
		return
	}
	sub.inQueue[slot] = false
	prev, next := sub.qPrev[slot], sub.qNext[slot]
	if prev >= 0 {
		sub.qNext[prev] = next
	} else {
		sub.qHead = next
	}
	if next >= 0 {
		sub.qPrev[next] = prev
	} else {
		sub.qTail = prev
	}
	sub.qNext[slot], sub.qPrev[slot] = -1, -1
}

// wantsTurn reports whether member w belongs in its sub-channel's turn
// queue: always under rotate, otherwise while it holds TX flits.
func (fb *Fabric) wantsTurn(w *WI) bool { return fb.rotate || w.txLen > 0 }

// txAdded applies the fabric-global half of one flit entering w's TX
// queues (WI.Accept's OpAccept, through ReplayShardOps): the txTotal
// launch predicate and, when first reports that the flit made w
// backlogged, its sub-channel's contention counter and turn queue.
func (fb *Fabric) txAdded(w *WI, first bool) {
	fb.txTotal++
	if first && w.sub != nil {
		w.sub.backlogged++
		w.sub.enqueue(w.subSlot)
	}
}

// txRemoved takes n flits off w's TX queue q after a transmission or a
// fault drop (the caller removes the entries): their credits return to
// the host switch and, when w drains, it leaves its sub-channel's
// contention counter and, unless it still wants turns or holds the open
// turn (requeueTurn settles the holder when the turn closes), the turn
// queue.
func (fb *Fabric) txRemoved(w *WI, q, n int) {
	fb.txTotal -= n
	w.txLen -= n
	for i := 0; i < n; i++ {
		w.sw.ReturnCredit(w.outPort, q)
	}
	if w.txLen > 0 || w.sub == nil {
		return
	}
	w.sub.backlogged--
	if !fb.wantsTurn(w) && !w.holdsTurn() {
		w.sub.dequeue(w.subSlot)
	}
}

// NewFabric constructs the wireless fabric, which charges its energy to
// m's root part. The exclusive model gets its sub-channels here, still
// empty: one under the single assignment, wireless_channels under the
// other two. WIs are added afterwards with AddWI in MAC-sequence order.
// WirelessLatency < 1 and more sub-channels than WIs are rejected by
// config.Validate; the fabric trusts its configuration.
func NewFabric(cfg config.Config, m *energy.Meter, rng *sim.Rand) *Fabric {
	// Per-flit error probability: 1 - (1-BER)^bits ≈ bits*BER for small BER.
	flitErr := 1.0 - pow1m(cfg.WirelessBER, cfg.FlitBits)
	pjPerFlit := cfg.WirelessPJPerBit * float64(cfg.FlitBits)
	fb := &Fabric{
		cfg:        cfg,
		rng:        rng,
		wiOf:       make(map[sim.SwitchID]*WI),
		part:       m.Root(),
		flitCharge: energy.NewCharge(energy.ClassWireless, cfg.FlitBits, pjPerFlit),
		controlCharge: energy.NewCharge(energy.ClassWireless,
			cfg.ControlFlits*cfg.FlitBits, pjPerFlit*float64(cfg.ControlFlits)),
		flitErrProb: flitErr,
		extraLat:    sim.Cycle(cfg.WirelessLatency),
		chanRate:    sim.RateFromGbps(cfg.WirelessGbps, cfg.FlitBits, cfg.ClockGHz),
		lastLaunch:  -1,
	}
	if cfg.Channel != config.ChannelExclusive {
		return fb
	}
	k := 1
	if cfg.ChannelAssign == config.AssignStaticPartition || cfg.ChannelAssign == config.AssignSpatialReuse {
		k = max(cfg.WirelessChannels, 1)
	}
	fb.subs = make([]*subChannel, k)
	for i := range fb.subs {
		fb.subs[i] = &subChannel{
			idx:           i,
			bucket:        sim.NewTokenBucket(fb.chanRate),
			announceDests: make(map[int]bool),
			qHead:         -1,
			qTail:         -1,
		}
	}
	fb.rotate = cfg.MACPolicyMode == config.PolicyRotate || cfg.MACPolicyMode == ""
	fb.weighted = cfg.MACPolicyMode == config.PolicyWeighted
	return fb
}

// pow1m computes (1-p)^n without math.Pow for tiny p.
func pow1m(p float64, n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= 1 - p
	}
	return out
}

// AddWI attaches a wireless interface to sw, creating its wireless ports,
// and on the exclusive model appends it to its sub-channel. WIs must be
// added in the paper's numbering order (the MAC turn sequence), so every
// member list runs in ascending WI index and sub-channel iteration order —
// and with it every energy accumulation — is deterministic. gx, gy locate
// the host switch on the global mesh grid (memory-stack switches sit just
// outside it); the spatial-reuse channel assignment groups WIs by these
// coordinates.
func (fb *Fabric) AddWI(sw *noc.Switch, gx, gy int) *WI {
	egressRate := sim.RateOne
	if fb.cfg.Channel == config.ChannelCrossbar && fb.cfg.CrossbarEgressGbp > 0 {
		egressRate = sim.RateFromGbps(fb.cfg.CrossbarEgressGbp, fb.cfg.FlitBits, fb.cfg.ClockGHz)
	}
	w := &WI{
		Index:     len(fb.wis),
		SwitchID:  sw.ID,
		gx:        gx,
		gy:        gy,
		fb:        fb,
		sw:        sw,
		txDepth:   fb.cfg.TXBufferFlits,
		txVC:      make([][]txEntry, sw.VCs()),
		announced: make([]int, sw.VCs()),
		egress:    sim.NewTokenBucket(egressRate),
		pktVC:     make(map[uint64]int, sw.VCs()),
		vcInUse:   make([]bool, sw.VCs()),
		space:     make([]int, sw.VCs()),
	}
	for i := range w.space {
		w.space[i] = fb.cfg.BufferDepth
	}
	// Output credits equal the per-VC TX queue depth.
	w.outPort = sw.AddOutputPort(w, fb.cfg.TXBufferFlits)
	sw.SetWIPort(w.outPort)
	w.inPort = sw.AddInputPort(w)
	fb.wis = append(fb.wis, w)
	fb.wiOf[sw.ID] = w
	fb.launchedScratch = append(fb.launchedScratch, false)
	if fb.subs != nil {
		// A new WI holds no TX flit, so only rotate queues it at once.
		sub := fb.subs[fb.subChannelOf(w)]
		w.sub, w.subSlot = sub, len(sub.members)
		sub.members = append(sub.members, w)
		sub.qNext = append(sub.qNext, -1)
		sub.qPrev = append(sub.qPrev, -1)
		sub.inQueue = append(sub.inQueue, false)
		if fb.wantsTurn(w) {
			sub.enqueue(w.subSlot)
		}
	}
	return w
}

// WIs returns the fabric's interfaces in MAC order.
func (fb *Fabric) WIs() []*WI { return fb.wis }

// subChannelOf returns the sub-channel the configured assignment gives w.
// static-partition deals WIs out by index. spatial-reuse divides the
// global mesh grid into the most-square kx × ky = k tiling and picks the
// zone holding w's host switch, so far-apart WI groups land on different
// channels and transmit concurrently (spatial frequency reuse) while
// neighbors share one and take turns. single has one channel.
func (fb *Fabric) subChannelOf(w *WI) int {
	k := len(fb.subs)
	switch fb.cfg.ChannelAssign {
	case config.AssignStaticPartition:
		return w.Index % k
	case config.AssignSpatialReuse:
		kx, ky := squareFactor(k)
		cols := fb.cfg.ChipsX * fb.cfg.CoresX
		rows := fb.cfg.ChipsY * fb.cfg.CoresY
		// Memory-stack switches flank the grid at gx = -1 / cols; fold them
		// onto the nearest grid column.
		x := min(max(w.gx, 0), cols-1)
		y := min(max(w.gy, 0), rows-1)
		return (y*ky/rows)*kx + x*kx/cols
	}
	return 0
}

// squareFactor returns the most-square (x, y) factorization of n with
// x >= y (the zone tiling of the spatial-reuse assignment).
func squareFactor(n int) (x, y int) {
	x, y = n, 1
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			x, y = n/d, d
		}
	}
	return x, y
}

// ConcurrencyBudget returns the number of concurrent wireless
// transmissions the fabric can physically sustain: the sub-channel cap for
// the crossbar model, and the number of populated sub-channels for the
// exclusive model (a spatial zone without WIs is dead capacity). The
// engine normalizes wireless link utilization by this budget.
func (fb *Fabric) ConcurrencyBudget() int {
	if fb.cfg.Channel == config.ChannelCrossbar {
		ch := fb.crossbarBudget()
		if ch < 1 {
			ch = 1
		}
		return ch
	}
	if fb.legacy != nil {
		return 1
	}
	busy := 0
	for _, s := range fb.subs {
		if len(s.members) > 0 {
			busy++
		}
	}
	if busy < 1 {
		busy = 1
	}
	return busy
}

// SubChannelMembers returns the WI indexes of each exclusive sub-channel
// in channel order (inspection/tests); nil for the crossbar model.
func (fb *Fabric) SubChannelMembers() [][]int {
	if fb.cfg.Channel != config.ChannelExclusive {
		return nil
	}
	out := make([][]int, len(fb.subs))
	for i, s := range fb.subs {
		for _, w := range s.members {
			out[i] = append(out[i], w.Index)
		}
	}
	return out
}

// TurnQueueDepth returns how many WIs are waiting for MAC service on w's
// transmit sub-channel and that sub-channel's member count — the
// MAC-contention signal of the adaptive route selector. The depth is the
// backlogged-member count (equal to the active-turn-queue length under
// every policy but rotate, and what the rotation effectively serves), kept
// O(1) by the txLen transition counters. The crossbar model has no turn
// schedule and reports (0, 0), as does the retained legacy single-channel
// MAC (the engine rejects adaptive selection on it).
func (fb *Fabric) TurnQueueDepth(w *WI) (queued, members int) {
	if fb.cfg.Channel != config.ChannelExclusive || fb.legacy != nil {
		return 0, 0
	}
	return w.sub.backlogged, len(w.sub.members)
}

// WIBySwitch returns the WI hosted at switch id, if any.
func (fb *Fabric) WIBySwitch(id sim.SwitchID) (*WI, bool) {
	w, ok := fb.wiOf[id]
	return w, ok
}

// LaunchNeeded reports whether Launch can make progress or mutate protocol
// state this cycle. The rotating exclusive MAC runs its turn machinery
// (and spends control-packet energy) continuously, so it must be ticked
// every cycle; under the other policies an exclusive fabric with no
// buffered TX flits and no open turn provably does nothing (turns are
// granted only to queued members, and there a queued member holds flits),
// so — like the crossbar — idle cycles are settled in O(1) by CatchUp. The
// crossbar only arbitrates when some WI has a flit buffered; an idle
// crossbar Launch would merely rotate rrDst and count sleep cycles, which
// CatchUp reproduces when the fabric wakes.
func (fb *Fabric) LaunchNeeded() bool {
	if len(fb.wis) < 2 {
		return false
	}
	if fb.cfg.Channel == config.ChannelExclusive {
		if fb.legacy == nil && !fb.rotate {
			return fb.txTotal > 0 || fb.busySubs > 0
		}
		return true
	}
	return fb.txTotal > 0
}

// NextLaunchCycle returns a conservative lower bound on the next cycle
// (strictly after now) at which Launch could transmit, advance a turn,
// spend energy, or otherwise mutate MAC state — the fabric's contribution
// to the engine's event horizon. Every cycle in (now, NextLaunchCycle(now))
// is provably CatchUp-equivalent: either LaunchNeeded would be false, or
// Launch would only perform the idle accounting CatchUp reproduces (all
// sub-channels frozen by an outage or idle with empty turn queues), so
// skipping those cycles and settling with CatchUp on wake is byte-identical
// to launching every one of them. Returns sim.Never when, absent new TX
// flits, the fabric will never act again.
func (fb *Fabric) NextLaunchCycle(now sim.Cycle) sim.Cycle {
	if len(fb.wis) < 2 {
		return sim.Never
	}
	if fb.cfg.Channel != config.ChannelExclusive {
		// Crossbar: an idle cycle (txTotal == 0) is exactly CatchUp — the
		// rrDst rotation plus sleep/awake counting.
		if fb.txTotal > 0 {
			return now + 1
		}
		return sim.Never
	}
	if fb.legacy != nil || fb.rotate {
		// The legacy MAC and the rotation run their turn machinery (and
		// spend control-packet energy) every cycle; never skip them.
		return now + 1
	}
	if fb.txTotal == 0 && fb.busySubs == 0 {
		return sim.Never // LaunchNeeded false: idle cycles settle via CatchUp
	}
	h := sim.Never
	for _, sub := range fb.subs {
		if len(sub.members) == 0 {
			continue
		}
		if sub.phase == phaseIdle && sub.qHead < 0 {
			continue // launchSub provably returns without mutating
		}
		c := now + 1
		if fs := fb.faults; fs != nil && fs.outUntil[sub.idx] > c {
			// Scheduled outage: launchSub returns before touching any state
			// until the window ends, so the freeze itself is skippable.
			c = fs.outUntil[sub.idx]
		}
		if c < h {
			h = c
		}
	}
	if h == sim.Never {
		// txTotal/busySubs said work exists but no sub looked actionable;
		// distrust the redundancy and stay conservative.
		return now + 1
	}
	return h
}

// NextDeliveryCycle returns the arrival cycle of the earliest wireless
// flit in flight, or sim.Never when none is pending. Deliveries are FIFO
// with nondecreasing arrival times, so this is Deliver's contribution to
// the engine's event horizon.
func (fb *Fabric) NextDeliveryCycle() sim.Cycle {
	if fb.pending.Empty() {
		return sim.Never
	}
	return fb.pending.Peek().at
}

// NextFaultCycle returns the cycle of the next unfired scheduled fault
// event, or sim.Never when the schedule is exhausted or the fault model
// inactive.
func (fb *Fabric) NextFaultCycle() sim.Cycle {
	fs := fb.faults
	if fs == nil || fs.nextEv >= len(fs.events) {
		return sim.Never
	}
	return fs.events[fs.nextEv].Cycle
}

// CatchUp applies the per-cycle side effects of every skipped idle Launch
// through cycle `through`: the crossbar destination rotation and the
// sleep/awake accounting (on an idle cycle each WI is awake exactly when
// power gating is disabled). The engine calls it before results are read
// and Launch calls it on wake, so active-set scheduling of the fabric is
// cycle-identical to ticking it every cycle.
func (fb *Fabric) CatchUp(through sim.Cycle) {
	if len(fb.wis) < 2 {
		return
	}
	gap := through - fb.lastLaunch
	if gap <= 0 {
		return
	}
	fb.lastLaunch = through
	n := len(fb.wis)
	if fb.cfg.Channel == config.ChannelCrossbar {
		fb.rrDst = (fb.rrDst + int(gap%sim.Cycle(n))) % n
	}
	if fb.cfg.SleepEnabled {
		fb.SleepCycles += int64(gap) * int64(n)
	} else {
		fb.AwakeCycles += int64(gap) * int64(n)
	}
}

// Launch arbitrates the channel and starts flit transmissions for this
// cycle. It runs before the switches' allocation stages so it sees the TX
// queues as filled by previous cycles.
func (fb *Fabric) Launch(now sim.Cycle) {
	if len(fb.wis) < 2 {
		return
	}
	fb.CatchUp(now - 1)
	fb.lastLaunch = now
	for _, w := range fb.wis {
		w.awake = !fb.cfg.SleepEnabled // sleepy receivers wake on demand
	}
	switch fb.cfg.Channel {
	case config.ChannelCrossbar:
		fb.launchCrossbar(now)
	case config.ChannelExclusive:
		if fb.legacy != nil {
			fb.launchExclusiveLegacy(now)
		} else {
			fb.launchExclusive(now)
		}
	}
	// Power-gating accounting.
	for _, w := range fb.wis {
		if w.awake {
			fb.AwakeCycles++
		} else {
			fb.SleepCycles++
		}
	}
}

// launchCrossbar arbitrates concurrent pairwise transmissions: destinations
// are served in a rotating order; each destination admits one source per
// cycle (round-robin); each source transmits at most one flit per cycle,
// chosen round-robin among its TX queues holding a launchable flit for that
// destination. Total concurrent transmissions are capped by the number of
// orthogonal mm-wave sub-channels (cfg.WirelessChannels, after the
// multi-channel transceivers of Chang et al. [6]) — this is the "physical
// bandwidth of the wireless interconnections remains constant regardless of
// the number of chips" property the paper's §IV.C argument relies on.
//
// Each destination visits only the sources its head index row names (see
// indexHeads), in the round-robin order of a scan over every WI. The scan
// would skip every other source without touching state — launchableQueue
// returns -1 before any reservation when no queue head addresses dst — up
// to an egress TokenBucket refill, which is lazy-exact. The index stays
// valid for the whole Launch: a source's queue heads change only when it
// transmits (or the fault model drops its head packet inside transmit),
// and a source that transmitted is marked launched and never visited
// again.
func (fb *Fabric) launchCrossbar(now sim.Cycle) {
	n := len(fb.wis)
	budget := fb.crossbarBudget()
	launched := fb.launchedScratch
	for i := range launched {
		launched[i] = false
	}
	heads := fb.indexHeads()
	words := len(heads) / n
	dstIdx := fb.rrDst - 1
	for di := 0; di < n && budget > 0; di++ {
		dstIdx++
		if dstIdx >= n {
			dstIdx = 0
		}
		if fb.launchTo(now, fb.wis[dstIdx], heads[dstIdx*words:(dstIdx+1)*words], launched) {
			budget--
		}
	}
	fb.rrDst = (fb.rrDst + 1) % n
}

// indexHeads rebuilds and returns the head index: for every destination
// WI, the bitset of source WIs with a TX queue head addressed to it, in
// O(WIs × VCs). Launch runs in the engine's serial phase, so no sharded
// Accept writes a queue meanwhile.
func (fb *Fabric) indexHeads() []uint64 {
	n := len(fb.wis)
	words := (n + 63) / 64
	if len(fb.headIdx) != n*words {
		fb.headIdx = make([]uint64, n*words)
	} else {
		clear(fb.headIdx)
	}
	for _, src := range fb.wis {
		if src.txLen == 0 {
			continue
		}
		bit := uint64(1) << (uint(src.Index) & 63)
		col := src.Index >> 6
		for _, queue := range src.txVC {
			if len(queue) > 0 {
				fb.headIdx[queue[0].dest.Index*words+col] |= bit
			}
		}
	}
	return fb.headIdx
}

// launchTo admits at most one source to dst, visiting the sources set in
// row (dst's head index row) from dst.rrSrc upward and then wrapping, and
// reports whether one transmitted.
func (fb *Fabric) launchTo(now sim.Cycle, dst *WI, row []uint64, launched []bool) bool {
	n := len(fb.wis)
	for pass := 0; pass < 2; pass++ {
		lo, hi := dst.rrSrc, n
		if pass == 1 {
			lo, hi = 0, dst.rrSrc
		}
		for i := nextBit(row, lo, hi); i >= 0; i = nextBit(row, i+1, hi) {
			src := fb.wis[i]
			if launched[i] || !src.egress.CanSpendAt(now) {
				continue
			}
			q := fb.launchableQueue(src, dst)
			if q < 0 {
				continue
			}
			fb.transmit(now, src, q)
			launched[i] = true
			dst.rrSrc = (i + 1) % n
			return true
		}
	}
	return false
}

// nextBit returns the lowest index in [lo, hi) whose bit is set in row, or
// -1.
func nextBit(row []uint64, lo, hi int) int {
	for lo < hi {
		if w := row[lo>>6] >> (uint(lo) & 63); w != 0 {
			if i := lo + bits.TrailingZeros64(w); i < hi {
				return i
			}
			return -1
		}
		lo = (lo | 63) + 1
	}
	return -1
}

// crossbarBudget returns the crossbar's per-cycle concurrent-launch cap:
// the configured sub-channel count, clamped to the WI count for bare
// harnesses that bypass config.Validate.
func (fb *Fabric) crossbarBudget() int {
	n := len(fb.wis)
	budget := fb.cfg.WirelessChannels
	if budget <= 0 || budget > n {
		budget = n
	}
	return budget
}

// launchableQueue returns a TX queue of src whose head flit can be
// transmitted to dst this cycle (receive VC and buffer space available,
// reserving them), or -1.
func (fb *Fabric) launchableQueue(src *WI, dst *WI) int {
	nq := len(src.txVC)
	q := src.rrTx - 1
	for k := 0; k < nq; k++ {
		q++
		if q >= nq {
			q = 0
		}
		if len(src.txVC[q]) == 0 {
			continue
		}
		e := &src.txVC[q][0]
		if e.dest != dst {
			continue
		}
		if e.reserved {
			src.rrTx = (q + 1) % nq
			return q
		}
		f := e.f
		var vc int
		if f.IsHead() {
			vc = dst.allocRxVC(f.Pkt.ID)
			if vc < 0 {
				continue // no receive VC free; try another stream
			}
		} else {
			vc = dst.rxVCFor(f.Pkt.ID)
			if vc < 0 {
				panic(fmt.Sprintf("core: WI %d body flit of pkt %d has no rx VC at WI %d",
					src.Index, f.Pkt.ID, dst.Index))
			}
		}
		if dst.space[vc] <= 0 {
			continue // receiver buffer full; try another stream
		}
		dst.space[vc]--
		e.reserved = true
		src.rrTx = (q + 1) % nq
		return q
	}
	return -1
}

// transmit sends the head flit of src's TX queue q, whose receive slot is
// already reserved. It reports whether the flit was delivered (false =
// corrupted; the flit stays queued for retransmission).
func (fb *Fabric) transmit(now sim.Cycle, src *WI, q int) bool {
	e := &src.txVC[q][0]
	f := e.f
	dst := e.dest
	vc := dst.rxVCFor(f.Pkt.ID)
	if vc < 0 {
		panic(fmt.Sprintf("core: reserved flit of pkt %d has no rx VC", f.Pkt.ID))
	}
	if fs := fb.faults; fs != nil && now < fs.backoffUntil[src.Index] {
		return false // NACK backoff: the transmitter holds off
	}
	if !src.egress.TrySpendAt(now) {
		return false
	}

	// Transmission energy is spent even when the flit is corrupted.
	fb.part.Add(fb.flitCharge)
	f.Pkt.AddEnergy(fb.flitCharge.FP)
	src.awake = true
	dst.awake = true

	if fb.flitErrProb > 0 && fb.rng.Float64() < fb.flitErrProb {
		src.Retransmits++
		f.Pkt.Retransmits++
		fb.Retransmits++
		return false
	}
	if fs := fb.faults; fs != nil {
		if pr := fs.per[src.Index][dst.Index]; pr > 0 && fb.rng.Float64() < pr {
			fb.faultCorrupt(now, src, q, e)
			return false
		}
		fs.consecFails[src.Index] = 0
		if fs.dead[src.Index] || fs.dead[dst.Index] {
			// A committed wormhole draining through a failed transceiver
			// completes, but its payload is lost: mark the packet a fault
			// casualty so the collector excludes it from goodput.
			f.Pkt.Faulted = true
		}
	}

	src.popTx(q)
	src.TxFlits++
	dst.RxFlits++
	fb.Launched++
	f.VC = int16(vc)
	f.Phase = 1 // post-wireless VC class (deadlock layering)
	fb.pending.Push(delivery{at: now + fb.extraLat, dest: dst, vc: vc, f: f})
	if f.IsTail() {
		dst.releaseRxVC(f.Pkt.ID)
	}
	return true
}

// Deliver lands wireless flits whose flight time has elapsed. It runs with
// the wired links' delivery phase so both technologies share timing.
func (fb *Fabric) Deliver(now sim.Cycle) {
	for !fb.pending.Empty() && fb.pending.Peek().at <= now {
		d := fb.pending.Pop()
		d.dest.sw.Receive(d.dest.inPort, d.vc, d.f)
	}
}

// PendingLen returns the number of wireless flits in flight.
func (fb *Fabric) PendingLen() int { return fb.pending.Len() }

// HasPending reports whether any wireless flit is awaiting delivery (the
// engine's Deliver activity predicate).
func (fb *Fabric) HasPending() bool { return !fb.pending.Empty() }

// BufferedTxFlits returns the total flits across all WI TX queues.
func (fb *Fabric) BufferedTxFlits() int {
	n := 0
	for _, w := range fb.wis {
		n += w.TxLen()
	}
	return n
}

// Drained reports whether no wireless traffic remains buffered or in
// flight.
func (fb *Fabric) Drained() bool {
	return !fb.HasPending() && fb.txTotal == 0
}
