package engine

import (
	"cmp"
	"slices"

	"wimc/internal/core"
	"wimc/internal/energy"
	"wimc/internal/noc"
	"wimc/internal/sim"
)

// Sharded execution: the one cycle loop
//
// step (run.go) is the only cycle loop, and it always runs over shards:
// contiguous row bands of the global mesh grid, each owning the switches
// in its band, the links leaving them, their WIs and NIs, the activity
// sets that decide which of them tick, and two logs. partition makes the
// shards before build, and build puts every component on its shard as it
// creates it. A serial engine is the one-shard case — one shard owning
// every switch, link and endpoint, with no boundary links and no barrier
// goroutine — and takes the same path: its WIs log their fabric-global ops
// and its NIs their events, and step replays both after their phase. With
// more shards the two per-shard phases run across worker goroutines,
// boundary links split into single-writer mailbox halves, and the replays
// merge the shards' logs back into the one-shard order, so results stay
// byte-identical at every shard count. doc.go has the ownership and replay
// rules and why each is exact.
//
// The test-only Params.fullTick bypasses the shard scheduling: it forces
// one shard and hands every cycle to stepFullTick, the independent
// reference loop that ticks every component with no active-set or barrier
// code, replaying the same two logs at the same points.

// shard is one row band of the system: the activity sets of the
// components it owns, its boundary-link halves, its logs and its meter
// part.
type shard struct {
	// Per-shard activity sets, indexed by GLOBAL component index (each set
	// is sized for the whole system; members are this shard's only).
	swActive   *sim.ActiveSet
	linkActive *sim.ActiveSet
	epActive   *sim.ActiveSet

	// Boundary links, by which half this shard owns: outBound links
	// originate here (this shard runs Accept/DeliverFlitHalf and drains
	// the credit inbox), inBound links terminate here (this shard runs
	// ReturnCredit/DeliverCreditHalf and drains the flit inbox).
	outBound []*noc.Link
	inBound  []*noc.Link

	ops    []core.ShardOp // owned WIs' fabric-global ops (P1 → S1)
	events []noc.Event    // owned NIs' events (P2 → S2)

	// meter is the shard's part of the energy meter: its switches, the
	// links leaving them and its NIs charge every flit here, with plain
	// adds.
	meter *energy.Part
}

// shardBarrier runs one function across persistent worker goroutines, one
// per shard beyond the first (shard 0 runs on the engine's goroutine), and
// waits for all of them — the per-cycle barrier. Workers live across
// cycles so the steady-state cost is two channel hops per worker per
// phase, not goroutine spawns. A one-shard barrier starts no goroutine and
// runs its only shard inline.
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

// partition splits the system into cfg.EngineShards row bands (clamped
// to [1, rows]; fullTick forces one), makes one shard per band with its
// own meter part and activity sets, records the shard owning each switch
// in e.swShard and binds the two per-shard phases. It runs before build,
// which puts every component on its switch's shard.
func (e *Engine) partition() {
	rows := e.cfg.ChipsY * e.cfg.CoresY
	nsh := e.cfg.EngineShards
	if e.fullTick {
		nsh = 1
	}
	bands := shardBands(rows, nsh)

	// Row → shard map. Every node (core and mem-logic alike) carries a
	// global row GY in [0, rows).
	rowShard := make([]int, rows)
	for si, band := range bands {
		for r := band[0]; r < band[1]; r++ {
			rowShard[r] = si
		}
	}

	// Each component adds itself to its shard's set on the events that
	// give it work (flit arrival, credit in flight, packet offered), and
	// the cycle loop visits members only.
	g := e.graph
	e.shards = make([]*shard, len(bands))
	for i := range e.shards {
		e.shards[i] = &shard{
			swActive:   sim.NewActiveSet(g.SwitchCount()),
			linkActive: sim.NewActiveSet(2 * len(g.Edges)),
			epActive:   sim.NewActiveSet(g.EndpointCount()),
			meter:      e.meter.NewPart(),
		}
	}
	e.swShard = make([]int, g.SwitchCount())
	for i, n := range g.Nodes {
		e.swShard[i] = rowShard[n.GY]
	}

	// The per-shard phases, bound once so a step allocates nothing (fresh
	// closures would escape through the barrier's job channels). Workers
	// read e.now after the job hand-off, which orders the read after Run's
	// write.
	e.pipelinePhase = func(si int) { e.tickShardPipeline(e.shards[si], e.now) }
	e.endpointPhase = func(si int) { e.tickShardEndpoints(e.shards[si], e.now) }
}

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
// component, so skipping idle ones is cycle-identical to the full-tick loop.
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

// replayFabricOps merges every shard's logged fabric-global operations by
// ascending host-switch index — the one-shard pipeline sweep order (at
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

// replayEndpointEvents merges every shard's logged NI events by ascending
// endpoint index — the one-shard NI sweep order (an endpoint's events live
// in exactly one shard's log in occurrence order, preserved by the stable
// sort) — and acts on them: a delivery is finalized, a binding classified
// when a route selector exists, and a head injection starts the
// watchdog's clock when the fault model is active.
func (e *Engine) replayEndpointEvents(now sim.Cycle) {
	buf := e.eventScratch[:0]
	for _, s := range e.shards {
		buf = append(buf, s.events...)
		s.events = s.events[:0]
	}
	if len(buf) > 0 {
		slices.SortStableFunc(buf, func(a, b noc.Event) int { return cmp.Compare(a.EP, b.EP) })
		for i := range buf {
			ev := &buf[i]
			switch {
			case ev.Kind == noc.EvDelivered:
				e.deliverPacket(now, ev.Pkt)
			case ev.Kind == noc.EvBound && e.selector != nil:
				e.classifyPacket(now, ev.Pkt)
			case ev.Kind == noc.EvInjected && e.wd != nil:
				e.wd.onInjected(now, ev.Pkt)
			}
			ev.Pkt = nil
		}
	}
	e.eventScratch = buf[:0]
}
