package engine

import (
	"cmp"
	"fmt"
	"slices"

	"wimc/internal/core"
	"wimc/internal/noc"
	"wimc/internal/sim"
)

// Sharded execution: the one cycle loop
//
// step (run.go) is the only cycle loop, and it always runs over shards:
// contiguous row bands of the global mesh grid, each owning the switches,
// NIs and WIs in its band and the activity sets that decide which of them
// tick. A serial engine is the one-shard case — one shard owning every
// switch, link and endpoint, with no boundary links, nothing deferred and
// no barrier goroutines. With more shards the two per-shard phases run
// across worker goroutines: boundary links split into single-writer
// mailbox halves, and fabric-global and NI-side effects defer into
// per-shard logs replayed in the one-shard order, so results stay
// byte-identical at every shard count. doc.go has the ownership and
// deferral rules and why each is exact.
//
// Params.FullTick bypasses all of this: it forces one shard and hands
// every cycle to stepFullTick, the independent reference loop that ticks
// every component with no active-set or shard code.

// epEvent defers one NI-side engine hook invocation for serial replay.
// ep is the global endpoint index — the stable merge key that recovers
// the one-shard NI sweep order (an endpoint's events all land in one
// shard's log in occurrence order, so a stable sort by ep reproduces the
// one-shard interleaving exactly).
type epEvent struct {
	ep   int
	kind uint8
	pkt  *noc.Packet
}

// Deferred NI hook kinds.
const (
	evDelivered uint8 = iota // deliverPacket (stats, replies, trace, pool)
	evClassify               // classifyPacket (route selector state)
	evInjected               // watchdog onInjected (liveness clock)
)

// shard is one row band of the system: the components it owns, their
// activity sets, its boundary-link halves and its deferred-work logs. The
// only shard of a one-shard engine has no boundary links and empty logs.
type shard struct {
	// Per-shard activity sets, indexed by GLOBAL component index (each set
	// is sized for the whole system; members are this shard's only).
	swActive   *sim.ActiveSet
	linkActive *sim.ActiveSet
	epActive   *sim.ActiveSet

	switchIdx []int // owned switches (ascending global index)

	// Boundary links, by which half this shard owns: outBound links
	// originate here (this shard runs Accept/DeliverFlitHalf and drains
	// the credit inbox), inBound links terminate here (this shard runs
	// ReturnCredit/DeliverCreditHalf and drains the flit inbox).
	outBound []*noc.Link
	inBound  []*noc.Link

	ops    []core.ShardOp // deferred fabric-global ops (P1 → S1)
	events []epEvent      // deferred NI hooks (P2 → S2)
}

// shardBarrier runs one function across persistent worker goroutines, one
// per shard beyond the first (shard 0 runs on the engine's goroutine), and
// waits for all of them — the per-cycle barrier. Workers live across
// cycles so the steady-state cost is two channel hops per worker per
// phase, not goroutine spawns.
type shardBarrier struct {
	jobs []chan func(int)
	done chan struct{}
}

func newShardBarrier(n int) *shardBarrier {
	b := &shardBarrier{done: make(chan struct{}, n-1)}
	for i := 1; i < n; i++ {
		ch := make(chan func(int))
		b.jobs = append(b.jobs, ch)
		go func(si int, ch chan func(int)) {
			for fn := range ch {
				fn(si)
				b.done <- struct{}{}
			}
		}(i, ch)
	}
	return b
}

// run executes fn(shardIndex) on every shard and returns after all
// complete.
func (b *shardBarrier) run(fn func(int)) {
	for _, ch := range b.jobs {
		ch <- fn
	}
	fn(0)
	for range b.jobs {
		<-b.done
	}
}

// stop terminates the worker goroutines.
func (b *shardBarrier) stop() {
	for _, ch := range b.jobs {
		close(ch)
	}
}

// shardBands splits rows [0, n) into k contiguous half-open bands covering
// every row exactly once, earlier bands taking the remainder.
func shardBands(n, k int) [][2]int {
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	out := make([][2]int, 0, k)
	start := 0
	for i := 0; i < k; i++ {
		size := n / k
		if i < n%k {
			size++
		}
		out = append(out, [2]int{start, start + size})
		start += size
	}
	return out
}

// buildShards partitions the built system into cfg.EngineShards row bands
// (clamped to [1, rows]; FullTick forces one) and registers every
// component on its owning shard's activity set: each component adds itself
// on the events that give it work (flit arrival, credit in flight, packet
// offered), and the cycle loop visits members only. With one shard that is
// the whole wiring — the engine hooks stay direct. With more, boundary
// links switch to mailbox halves, endpoint hooks and WI fabric-global ops
// defer into per-shard logs, and the two parallel phases are bound once.
func (e *Engine) buildShards() {
	rows := e.cfg.ChipsY * e.cfg.CoresY
	nsh := e.cfg.EngineShards
	if e.fullTick {
		nsh = 1
	}
	bands := shardBands(rows, nsh)
	g := e.graph

	// Row → shard map. Every node (core and mem-logic alike) carries a
	// global row GY in [0, rows).
	rowShard := make([]int, rows)
	for si, band := range bands {
		for r := band[0]; r < band[1]; r++ {
			rowShard[r] = si
		}
	}

	e.shards = make([]*shard, len(bands))
	for i := range e.shards {
		e.shards[i] = &shard{
			swActive:   sim.NewActiveSet(len(e.switches)),
			linkActive: sim.NewActiveSet(len(e.links)),
			epActive:   sim.NewActiveSet(len(e.endpoints)),
		}
	}

	// Switches by row band.
	swShard := make([]int, len(e.switches))
	for i, n := range g.Nodes {
		si := rowShard[n.GY]
		swShard[i] = si
		e.shards[si].switchIdx = append(e.shards[si].switchIdx, i)
		e.switches[i].SetActivity(e.shards[si].swActive, i)
	}

	// Links: intra-shard links keep normal delivery under the owning
	// shard's activity set; boundary links switch to mailbox halves and
	// stay out of activity scheduling (their halves run unconditionally
	// each cycle — a link with no ActiveSet no-ops its Add calls).
	for i, l := range e.links {
		a, b := e.linkEnds[i][0], e.linkEnds[i][1]
		sa, sb := swShard[a], swShard[b]
		if sa == sb {
			l.SetActivity(e.shards[sa].linkActive, i)
			continue
		}
		l.SetMailbox()
		e.shards[sa].outBound = append(e.shards[sa].outBound, l)
		e.shards[sb].inBound = append(e.shards[sb].inBound, l)
	}

	// Endpoints co-locate with their host switch. Sharded, their engine
	// hooks defer into the owning shard's event log (replayed in S2).
	sharded := len(e.shards) > 1
	for i, ep := range e.endpoints {
		s := e.shards[swShard[g.Endpoints[i].Switch]]
		ep.SetActivity(s.epActive, i)
		if !sharded {
			continue
		}
		idx := i
		ep.SetDeliveredHook(func(_ sim.Cycle, p *noc.Packet) {
			s.events = append(s.events, epEvent{ep: idx, kind: evDelivered, pkt: p})
		})
		if e.selector != nil {
			ep.SetClassifier(func(_ sim.Cycle, p *noc.Packet) {
				s.events = append(s.events, epEvent{ep: idx, kind: evClassify, pkt: p})
			})
		}
		if e.wd != nil {
			ep.SetInjectionHook(func(_ sim.Cycle, p *noc.Packet) {
				s.events = append(s.events, epEvent{ep: idx, kind: evInjected, pkt: p})
			})
		}
	}

	// Sharded, wireless interfaces log their deferred fabric-global ops
	// into the shard owning their host switch.
	if e.fabric != nil && sharded {
		for _, w := range e.fabric.WIs() {
			w.SetShardLog(&e.shards[swShard[w.SwitchID]].ops)
		}
	}

	// The parallel phases, bound once so a sharded step allocates nothing
	// (fresh closures would escape through the barrier's job channels).
	// Workers read e.now after the job hand-off, which orders the read
	// after Run's write.
	if sharded {
		e.pipelinePhase = func(si int) { e.tickShardPipeline(e.shards[si], e.now) }
		e.endpointPhase = func(si int) { e.tickShardEndpoints(e.shards[si], e.now) }
	}
}

// NumShards returns the number of execution shards: 1 for a serial engine.
func (e *Engine) NumShards() int { return len(e.shards) }

// stopShards terminates the barrier workers; stepping restarts them
// lazily, so it is safe to call between runs or from tests.
func (e *Engine) stopShards() {
	if e.barrier != nil {
		e.barrier.stop()
		e.barrier = nil
	}
}

// tickShardPipeline is one shard's pipeline phase: drain boundary
// mailboxes parked by peer shards at cycle now-1 (exactly when a one-shard
// run's destination pipeline would first see them), run the SA/ST → VA →
// RC sweeps over owned active switches, deliver active intra-shard links,
// and park this cycle's due boundary traffic for the peers. Active sweeps
// run in ascending index order, a strict subsequence of ticking every
// component, so skipping idle ones is cycle-identical to FullTick.
func (e *Engine) tickShardPipeline(s *shard, now sim.Cycle) {
	for _, l := range s.inBound {
		l.DrainFlitInbox(now)
	}
	for _, l := range s.outBound {
		l.DrainCreditInbox(now)
	}
	// No switch joins or leaves the active set during the three pipeline
	// phases (traversed flits land in link/WI/endpoint queues, never
	// directly in another switch, and a traversal returns credits only to
	// links, NIs, WIs and — through a fault-model drop — the traversing
	// switch itself), so the three sweeps see identical membership. The RC
	// sweep then removes empty switches and parks stalled ones (doc.go).
	for it := s.swActive.Iter(); ; {
		i, ok := it.Next()
		if !ok {
			break
		}
		e.switches[i].TickSAST(now)
	}
	for it := s.swActive.Iter(); ; {
		i, ok := it.Next()
		if !ok {
			break
		}
		e.switches[i].TickVA(now)
	}
	for it := s.swActive.Iter(); ; {
		i, ok := it.Next()
		if !ok {
			break
		}
		sw := e.switches[i]
		sw.TickRC(now)
		if sw.BufferedFlits() == 0 {
			s.swActive.Remove(i)
		} else if sw.Stalled() {
			s.swActive.Park(i)
		}
	}
	for it := s.linkActive.Iter(); ; {
		i, ok := it.Next()
		if !ok {
			break
		}
		l := e.links[i]
		l.Deliver(now)
		if !l.Busy() {
			s.linkActive.Remove(i)
		}
	}
	for _, l := range s.outBound {
		l.DeliverFlitHalf(now)
	}
	for _, l := range s.inBound {
		l.DeliverCreditHalf(now)
	}
}

// tickShardEndpoints is one shard's NI phase: tick its active endpoints
// in ascending index order, then drop drained ones and park stalled ones.
func (e *Engine) tickShardEndpoints(s *shard, now sim.Cycle) {
	for it := s.epActive.Iter(); ; {
		i, ok := it.Next()
		if !ok {
			break
		}
		ep := e.endpoints[i]
		ep.Tick(now)
		if ep.Drained() {
			s.epActive.Remove(i)
		} else if ep.Stalled() {
			s.epActive.Park(i)
		}
	}
}

// replayFabricOps merges every shard's deferred fabric-global operations
// by ascending host-switch index — the one-shard pipeline sweep order (at
// most one wireless Accept reaches a WI per cycle, and per-WI op order is
// preserved by the stable sort) — and applies them.
func (e *Engine) replayFabricOps(now sim.Cycle) {
	buf := e.opScratch[:0]
	for _, s := range e.shards {
		buf = append(buf, s.ops...)
		s.ops = s.ops[:0]
	}
	if len(buf) > 0 {
		slices.SortStableFunc(buf, func(a, b core.ShardOp) int {
			return cmp.Compare(a.W.SwitchID, b.W.SwitchID)
		})
		e.fabric.ReplayShardOps(now, buf)
	}
	e.opScratch = buf[:0]
}

// replayEndpointEvents merges every shard's deferred NI events by
// ascending endpoint index — the one-shard NI sweep order (an endpoint's
// events live in exactly one shard's log in occurrence order, preserved
// by the stable sort) — and invokes the real hooks.
func (e *Engine) replayEndpointEvents(now sim.Cycle) {
	buf := e.eventScratch[:0]
	for _, s := range e.shards {
		buf = append(buf, s.events...)
		s.events = s.events[:0]
	}
	if len(buf) > 0 {
		slices.SortStableFunc(buf, func(a, b epEvent) int { return cmp.Compare(a.ep, b.ep) })
		for i := range buf {
			ev := &buf[i]
			switch ev.kind {
			case evDelivered:
				e.deliverPacket(now, ev.pkt)
			case evClassify:
				e.classifyPacket(now, ev.pkt)
			case evInjected:
				e.wd.onInjected(now, ev.pkt)
			}
			ev.pkt = nil
		}
	}
	e.eventScratch = buf[:0]
}

// CheckShardInvariants checks the incrementally maintained state owned by
// shard si: the pipeline invariants of its switches, the park/wake
// invariants of its activity sets (see checkMembership) and the MAC
// protocol invariants of its wireless sub-channels. A sub-channel belongs
// to the shard owning its first member's host switch, resolved here
// because the fabric builds its sub-channels on the first Launch, after
// buildShards. Safe to call concurrently from distinct shards (test hook
// for per-shard, per-cycle validation).
func (e *Engine) CheckShardInvariants(si int) error {
	s := e.shards[si]
	for _, i := range s.switchIdx {
		if err := e.switches[i].CheckPipelineInvariants(); err != nil {
			return err
		}
	}
	if err := e.checkMembership(s); err != nil {
		return err
	}
	if e.fabric != nil {
		for ci := 0; ci < e.fabric.SubChannels(); ci++ {
			if host, ok := e.fabric.SubChannelHostSwitch(ci); ok && s.owns(host) {
				if err := e.fabric.CheckSubChannel(ci); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// owns reports whether switch id belongs to shard s.
func (s *shard) owns(id sim.SwitchID) bool {
	_, ok := slices.BinarySearch(s.switchIdx, int(id))
	return ok
}

// checkMembership recomputes the park/wake invariants of shard s's switch
// and endpoint activity sets from component state, and each owned core
// NI's room flag (noc.Endpoint.CheckRoomFlag):
//
//	not active ⇒ switch empty or Stalled;  NI Drained or Stalled
//	parked     ⇔ holds work (buffered flits; not Drained) and not active
//
// The first says no component that could act is missing from the sweeps
// (a dropped wake shows here the cycle after it was lost); the second that
// active ∪ parked is exactly the set of components holding work, the
// membership the quiescence probe relies on. Valid at every step boundary
// on both scheduling paths: FullTick never parks, and there every holder
// is active because a component joins on the event that gives it work.
func (e *Engine) checkMembership(s *shard) error {
	for _, i := range s.switchIdx {
		sw := e.switches[i]
		active, parked := s.swActive.Contains(i), s.swActive.Parked(i)
		holds := sw.BufferedFlits() > 0
		if !active && holds && !sw.Stalled() {
			return fmt.Errorf("engine: switch %d holds %d flits and can act, but is not active", i, sw.BufferedFlits())
		}
		if parked != (holds && !active) {
			return fmt.Errorf("engine: switch %d parked=%v, active=%v, buffered=%d", i, parked, active, sw.BufferedFlits())
		}
	}
	for i, ep := range e.endpoints {
		// An NI belongs to the shard owning its host switch.
		if !s.owns(e.graph.Endpoints[i].Switch) {
			continue
		}
		active, parked := s.epActive.Contains(i), s.epActive.Parked(i)
		holds := !ep.Drained()
		if !active && holds && !ep.Stalled() {
			return fmt.Errorf("engine: endpoint %d holds work and can act, but is not active", i)
		}
		if parked != (holds && !active) {
			return fmt.Errorf("engine: endpoint %d parked=%v, active=%v, drained=%v", i, parked, active, !holds)
		}
		if err := ep.CheckRoomFlag(); err != nil {
			return err
		}
	}
	return nil
}
