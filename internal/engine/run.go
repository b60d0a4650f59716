package engine

import (
	"fmt"
	"sort"

	"wimc/internal/energy"
	"wimc/internal/noc"
	"wimc/internal/route"
	"wimc/internal/sim"
)

// Result summarizes one simulation run.
type Result struct {
	Name   string `json:"name"`
	Cycles int64  `json:"cycles"`
	Cores  int    `json:"cores"`

	// Delivery accounting.
	GeneratedPackets int64 `json:"generated_packets"`
	RefusedPackets   int64 `json:"refused_packets"`
	InjectedPackets  int64 `json:"injected_packets"`
	DeliveredPackets int64 `json:"delivered_packets"`
	MeasuredPackets  int64 `json:"measured_packets"`

	// Latency (cycles; packets created after warmup, delivered in-window).
	// The percentiles are histogram upper bounds (power-of-two buckets).
	AvgLatency      float64   `json:"avg_latency_cycles"`
	AvgNetLatency   float64   `json:"avg_net_latency_cycles"`
	AvgQueueLatency float64   `json:"avg_queue_latency_cycles"`
	P50Latency      sim.Cycle `json:"p50_latency_cycles"`
	P95Latency      sim.Cycle `json:"p95_latency_cycles"`
	P99Latency      sim.Cycle `json:"p99_latency_cycles"`
	MaxLatency      sim.Cycle `json:"max_latency_cycles"`
	AvgHops         float64   `json:"avg_hops"`
	// AvgDeliveredLatency covers every packet delivered in the window
	// regardless of creation time (the usable sample under saturation).
	AvgDeliveredLatency float64 `json:"avg_delivered_latency_cycles"`
	AvgDeliveredHops    float64 `json:"avg_delivered_hops"`

	// Throughput over the measurement window.
	WindowBits           int64   `json:"window_bits"`
	BandwidthPerCoreGbps float64 `json:"bandwidth_per_core_gbps"`
	AcceptedFlitsPerCore float64 `json:"accepted_flits_per_core_per_cycle"`

	// Memory read transactions (when the workload issues reads).
	MemReplies       int64   `json:"mem_replies"`
	AvgReadRoundTrip float64 `json:"avg_read_round_trip_cycles"`

	// Energy.
	AvgPacketEnergyNJ float64            `json:"avg_packet_energy_nj"`
	DynamicPJ         float64            `json:"dynamic_pj"`
	StaticPJ          float64            `json:"static_pj"`
	EnergyBreakdown   map[string]float64 `json:"energy_breakdown_pj"`

	// LinkUtilization maps each link technology to its mean utilization
	// over the whole run: flits carried / (links × cycles). A class near
	// 1.0 is the saturating resource.
	LinkUtilization map[string]float64 `json:"link_utilization"`

	// RouteClassPackets counts packets classified as they entered the
	// network, per route class (keys are route.RouteClass names).
	// Populated only on adaptive hybrid runs; under static selection
	// every packet rides class 0 and the field is omitted.
	RouteClassPackets map[string]int64 `json:"route_class_packets,omitempty"`
	// RouteSpills / RouteReturns count the adaptive selector's hysteresis
	// transitions (WIs entering / leaving the spilled state); zero
	// elsewhere.
	RouteSpills  int64 `json:"route_spills,omitempty"`
	RouteReturns int64 `json:"route_returns,omitempty"`

	// Per-route-class delivered-packet breakdown (same measured sample as
	// AvgLatency), populated whenever a route selector exists — it makes
	// the latency and energy cost of wired-class failover directly visible
	// in sweep tables. Omitted on single-class and static runs.
	RouteClassAvgLatency  map[string]float64 `json:"route_class_avg_latency_cycles,omitempty"`
	RouteClassAvgEnergyPJ map[string]float64 `json:"route_class_avg_energy_pj,omitempty"`

	// Fault model (all zero / omitted when the fault model is off):
	// FaultDrops counts packets the model abandoned (retry exhaustion +
	// fail-stop WI failures), FaultRetryExhausted the retry-budget subset,
	// FaultCasualties delivered packets whose payload a dead transceiver
	// lost (excluded from goodput), and FaultFailovers packets rerouted
	// onto the wired-only class by the failover selector.
	FaultDrops          int64 `json:"fault_drops,omitempty"`
	FaultRetryExhausted int64 `json:"fault_retry_exhausted,omitempty"`
	FaultCasualties     int64 `json:"fault_casualties,omitempty"`
	FaultFailovers      int64 `json:"fault_failovers,omitempty"`

	// Wireless protocol counters (zero for wired architectures).
	ControlPackets  int64   `json:"control_packets"`
	TokenPasses     int64   `json:"token_passes"`
	Retransmits     int64   `json:"retransmits"`
	WIMaxTxDepth    int     `json:"wi_max_tx_depth"`
	WIAwakeFraction float64 `json:"wi_awake_fraction"`
	WIStaticPJ      float64 `json:"wi_static_pj"`

	// Event-horizon fast-forward telemetry (omitted when zero so cached
	// results from non-skipping runs stay byte-stable). IdleCyclesSkipped
	// counts simulated cycles Run jumped over because the system was
	// quiescent and no component could act before the horizon.
	// DrainCyclesUsed / DrainCyclesConfigured record the drain-window early
	// exit: when the horizon is sim.Never during drain the run ends
	// immediately, reporting how much of the configured window was actually
	// needed. All accounting (static energy, sleep/awake cycles, Cycles,
	// link utilization) is settled exactly as the every-cycle path would,
	// so these fields are pure telemetry: zeroing them makes a
	// fast-forwarded Result byte-identical to its every-cycle reference.
	IdleCyclesSkipped     int64 `json:"idle_cycles_skipped,omitempty"`
	DrainCyclesUsed       int64 `json:"drain_cycles_used,omitempty"`
	DrainCyclesConfigured int64 `json:"drain_cycles_configured,omitempty"`
}

// Run executes the configured warmup + measurement (+ drain) windows and
// returns the results.
//
// Event-horizon fast-forward: after any stepped cycle that leaves the
// system quiescent (see quiescent), Run computes the earliest future cycle
// at which any component could act (see horizon) and jumps e.now straight
// to it. Every skipped cycle is a provable no-op of step — the active sets
// are empty, the fabric is CatchUp-equivalent, no wireless flit lands, no
// reply is due, no fault event fires and the traffic source neither draws
// nor emits — so the replay is byte-identical to ticking each one (the
// determinism matrix asserts this against the EveryCycle reference at
// every shard count). A horizon at or beyond the end of the run ends it
// immediately (the drain-window early exit), with e.now advanced to the
// configured total so Cycles, link utilization and the CatchUp window are
// unchanged. The skip lives here rather than in step so harnesses and
// invariant tests that step manually keep the strict every-cycle contract.
func (e *Engine) Run() (*Result, error) {
	defer e.stopShards()
	total := e.cfg.WarmupCycles + e.cfg.MeasureCycles + e.cfg.DrainCycles
	ff := !e.everyCycle
	for ; e.now < total; e.now++ {
		e.step()
		if e.wd != nil && e.wd.err != nil {
			return nil, e.wd.err
		}
		if ff && e.now+1 < total && e.quiescent() {
			if h := e.horizon(); h >= total {
				if h == sim.Never && e.cfg.DrainCycles > 0 {
					e.drainExited = true
					if used := e.now + 1 - e.genStop; used > 0 {
						e.drainUsed = used
					}
				}
				e.idleSkipped += total - 1 - e.now
				e.now = total - 1
			} else if h > e.now+1 {
				e.idleSkipped += h - 1 - e.now
				e.now = h - 1
			}
		}
	}
	if e.fabric != nil {
		// Settle the sleep/awake accounting of trailing idle cycles whose
		// Launch was skipped.
		e.fabric.CatchUp(total - 1)
	}
	if e.traceErr != nil {
		return nil, e.traceErr
	}
	return e.results()
}

// step advances the system by one cycle — the one cycle loop at every
// shard count (see shard.go). Phase order:
//
//   - S0: fault events, the watchdog, wireless launch.
//   - P1: per shard, mailbox drains, the SA/ST → VA → RC sweeps and link
//     delivery; WIs log their fabric-global ops.
//   - S1: fabric-op replay, wireless delivery.
//   - P2: per shard, NI ticks; NIs log their events.
//   - S2: endpoint-event replay, memory read replies, traffic generation.
//
// Each P phase runs through the barrier, which runs a one-shard engine's
// only shard inline, and each replay merges the shards' logs into the
// one-shard order.
func (e *Engine) step() {
	if e.fullTick {
		e.stepFullTick()
		return
	}
	now := e.now
	if e.wd != nil {
		// Fault model active: fire scheduled fault events before the MAC
		// arbitrates, and check the liveness invariant every cycle.
		e.fabric.ApplyFaults(now)
		e.wd.check(now)
	}
	if e.fabric != nil && e.fabric.LaunchNeeded() {
		e.fabric.Launch(now)
	}
	if e.barrier == nil {
		e.barrier = newShardBarrier(len(e.shards))
	}
	e.barrier.run(e.pipelinePhase)
	e.replayFabricOps(now)
	// Wireless delivery writes destination switches and WIs across shards.
	if e.fabric != nil && e.fabric.HasPending() {
		e.fabric.Deliver(now)
	}
	e.barrier.run(e.endpointPhase)
	e.replayEndpointEvents(now)
	e.issueReplies(now)
	if now < e.genStop {
		e.generate(now)
	}
}

// stepFullTick is the full-tick reference loop: step's phase order with
// every switch, link and endpoint ticked every cycle, and no active-set
// or barrier code, so the determinism matrix compares step's scheduling
// against an independent loop. It replays the one shard's two logs at the
// same points as step.
func (e *Engine) stepFullTick() {
	now := e.now
	if e.wd != nil {
		e.fabric.ApplyFaults(now)
		e.wd.check(now)
	}
	if e.fabric != nil {
		e.fabric.Launch(now)
	}
	for _, s := range e.switches {
		s.TickSAST(now)
	}
	for _, s := range e.switches {
		s.TickVA(now)
	}
	for _, s := range e.switches {
		s.TickRC(now)
	}
	for _, l := range e.links {
		l.Deliver(now)
	}
	e.replayFabricOps(now)
	if e.fabric != nil {
		e.fabric.Deliver(now)
	}
	for _, ep := range e.endpoints {
		ep.Tick(now)
	}
	e.replayEndpointEvents(now)
	e.issueReplies(now)
	if now < e.genStop {
		e.generate(now)
	}
}

// quiescent reports whether the network is provably inert: every shard's
// activity sets are empty, with no active and no parked member (a parked
// switch or NI still holds work; see doc.go), and every boundary link is
// quiet, including its mailbox parity buffers (boundary links live outside
// the activity sets). With quiescent true, a step can only act through the
// horizon sources: fabric launch/delivery, scheduled fault events, due
// DRAM replies, traffic generation and the watchdog. The probe runs at the
// serial point after step returns (post-barrier when sharded), so every
// shard trivially agrees on it — and on the horizon computed from it.
func (e *Engine) quiescent() bool {
	for _, s := range e.shards {
		if !s.swActive.Empty() || !s.linkActive.Empty() || !s.epActive.Empty() {
			return false
		}
		// Each boundary link belongs to exactly one shard's outBound.
		for _, l := range s.outBound {
			if !l.Quiet() {
				return false
			}
		}
	}
	return true
}

// horizon returns the event horizon: a conservative lower bound, strictly
// after e.now, on the next cycle at which any component could act or
// mutate state (RNG draws included). Meaningful only when quiescent()
// holds. sim.Never means no future event exists at all — the run can end.
func (e *Engine) horizon() sim.Cycle {
	now := e.now
	h := sim.Never
	if now+1 < e.genStop {
		// The traffic source's next event matters only while generation
		// still runs; a source boundary at or beyond genStop is never
		// polled.
		if c := e.source.NextEventCycle(now); c < e.genStop && c < h {
			h = c
		}
	}
	if len(e.replies) > 0 && e.replies[0].readyAt < h {
		h = e.replies[0].readyAt
	}
	if e.fabric != nil {
		if c := e.fabric.NextLaunchCycle(now); c < h {
			h = c
		}
		if c := e.fabric.NextDeliveryCycle(); c < h {
			h = c
		}
		if c := e.fabric.NextFaultCycle(); c < h {
			h = c
		}
	}
	if e.wd != nil {
		// Cap the jump at the watchdog deadline so a wedged packet trips
		// the liveness check on the identical cycle the every-cycle loop
		// would have (step checks the watchdog first thing on resume).
		if c := e.wd.deadline(); c < h {
			h = c
		}
	}
	if h <= now {
		h = now + 1 // defensive: never move backwards
	}
	return h
}

// issueReplies offers the due DRAM read replies, a prefix of e.replies,
// to their channel NIs in delivery order. A reply refused by a full source
// queue stays at the front for the next cycle, and the replies not yet due
// move up behind it; the loop visits only the due prefix.
func (e *Engine) issueReplies(now sim.Cycle) {
	kept, i := 0, 0
	for ; i < len(e.replies) && e.replies[i].readyAt <= now; i++ {
		pr := e.replies[i]
		req := pr.request
		e.nextPkt++
		reply := e.pool.Get()
		reply.ID = e.nextPkt
		reply.Src = req.Dst
		reply.Dst = req.Src
		reply.NumFlits = e.cfg.MemReplyFlits
		reply.Class = noc.ClassMemReply
		reply.CreatedAt = now
		reply.RequestCreatedAt = req.CreatedAt
		reply.ReplyFor = req.ID
		if e.endpoints[req.Dst].Offer(reply) {
			e.pool.Put(req) // request fully served; recycle it
		} else {
			e.nextPkt-- // channel queue full: retry next cycle
			e.pool.Put(reply)
			e.replies[kept] = pr
			kept++
		}
	}
	if i > kept {
		n := kept + copy(e.replies[kept:], e.replies[i:])
		clear(e.replies[n:])
		e.replies = e.replies[:n]
	}
}

// generate polls the traffic source once for every core and offers the
// packets of the cores whose source queue has room. A generated packet of
// a full core was drawn but is never built: it burns its ID and counts as
// generated and refused, as if its NI had refused it. At saturation that
// is almost every packet.
func (e *Engine) generate(now sim.Cycle) {
	gens, n := e.source.Generate(now, e.room, e.gens[:0])
	e.gens = gens
	for i := range gens {
		g := &gens[i]
		cl := noc.ClassCoreToCore
		if g.Mem {
			cl = noc.ClassCoreToMem
		}
		coreID := e.world.Cores[g.Core]
		p := e.pool.Get()
		p.ID = e.nextPkt + uint64(g.Seq) + 1
		p.Src = coreID
		p.Dst = g.Dst
		p.NumFlits = g.Flits
		p.Class = cl
		p.CreatedAt = now
		p.Read = g.Read
		e.endpoints[coreID].Offer(p) // cannot refuse: its room flag was set
	}
	e.nextPkt += uint64(n)
	e.genRefused += int64(n - len(gens))
}

// results finalizes static energy and assembles the Result.
func (e *Engine) results() (*Result, error) {
	cfg := e.cfg
	coll := e.coll
	window := cfg.MeasureCycles

	// Static energy over the measurement window.
	e.meter.AddStaticMWCycles(cfg.SwitchStaticMW*float64(len(e.switches)), window)
	awakeFrac := 0.0
	wiStatic := 0.0
	if e.fabric != nil {
		aw, sl := e.fabric.AwakeCycles, e.fabric.SleepCycles
		if aw+sl > 0 {
			awakeFrac = float64(aw) / float64(aw+sl)
		}
		nWI := float64(len(e.fabric.WIs()))
		before := e.meter.StaticPJ()
		e.meter.AddStaticMWCycles(cfg.WIRxActiveMW*nWI*awakeFrac, window)
		e.meter.AddStaticMWCycles(cfg.WISleepMW*nWI*(1-awakeFrac), window)
		wiStatic = e.meter.StaticPJ() - before
	}

	gen, ref := e.genRefused, e.genRefused
	var inj, del int64
	for _, ep := range e.endpoints {
		gen += ep.Generated
		ref += ep.Refused
		inj += ep.Injected
		del += ep.Ejected
	}

	cores := len(e.world.Cores)
	cycleNS := e.meter.CycleNS()
	bwPerCore := 0.0
	accepted := 0.0
	if window > 0 && cores > 0 {
		bwPerCore = float64(coll.WindowBits) / (float64(window) * cycleNS) / float64(cores)
		accepted = float64(coll.WindowFlits) / float64(window) / float64(cores)
	}

	// Average packet energy: packet-attributed dynamic energy plus the
	// static energy amortized over packets delivered in the window.
	avgPktNJ := 0.0
	if coll.WindowPackets > 0 {
		avgPktNJ = (coll.WindowEnergyPJ + e.meter.StaticPJ()) /
			float64(coll.WindowPackets) / 1000.0
	}

	r := &Result{
		Name:   cfg.Name,
		Cycles: e.now,
		Cores:  cores,

		GeneratedPackets: gen,
		RefusedPackets:   ref,
		InjectedPackets:  inj,
		DeliveredPackets: del,
		MeasuredPackets:  coll.Packets,

		AvgLatency:          coll.AvgLatency(),
		AvgNetLatency:       coll.AvgNetLatency(),
		AvgQueueLatency:     coll.AvgQueueLatency(),
		P50Latency:          coll.LatencyPercentile(0.50),
		P95Latency:          coll.LatencyPercentile(0.95),
		P99Latency:          coll.LatencyPercentile(0.99),
		MaxLatency:          coll.MaxLatency,
		AvgHops:             coll.AvgHops(),
		AvgDeliveredLatency: coll.AvgWindowLatency(),
		AvgDeliveredHops:    coll.AvgWindowHops(),

		WindowBits:           coll.WindowBits,
		BandwidthPerCoreGbps: bwPerCore,
		AcceptedFlitsPerCore: accepted,

		MemReplies:       coll.MemReplies,
		AvgReadRoundTrip: coll.AvgReadRoundTrip(),

		AvgPacketEnergyNJ: avgPktNJ,
		DynamicPJ:         e.meter.TotalDynamicPJ(),
		StaticPJ:          e.meter.StaticPJ(),
		EnergyBreakdown:   e.meter.Breakdown(),
		LinkUtilization:   e.linkUtilization(),

		WIAwakeFraction: awakeFrac,
		WIStaticPJ:      wiStatic,

		IdleCyclesSkipped: e.idleSkipped,
		DrainCyclesUsed:   e.drainUsed,
	}
	if e.drainExited {
		r.DrainCyclesConfigured = e.cfg.DrainCycles
	}
	if e.fabric != nil {
		r.ControlPackets = e.fabric.ControlPackets
		r.TokenPasses = e.fabric.TokenPasses
		r.Retransmits = e.fabric.Retransmits
		r.FaultDrops = e.fabric.Drops
		r.FaultRetryExhausted = e.fabric.RetryExhausted
		r.FaultCasualties = coll.FaultCasualties
		for _, w := range e.fabric.WIs() {
			if w.MaxTxDepth > r.WIMaxTxDepth {
				r.WIMaxTxDepth = w.MaxTxDepth
			}
		}
	}
	if e.fsel != nil {
		r.FaultFailovers = e.fsel.Failovers
	}
	if e.selector != nil {
		r.RouteClassPackets = make(map[string]int64, len(e.classPackets))
		for c, n := range e.classPackets {
			if n > 0 {
				r.RouteClassPackets[route.RouteClass(c).String()] = n
			}
		}
		for c := 0; c < int(route.NumClasses) && c < len(coll.RCPackets); c++ {
			if coll.RCPackets[c] == 0 {
				continue
			}
			if r.RouteClassAvgLatency == nil {
				r.RouteClassAvgLatency = make(map[string]float64, 2)
				r.RouteClassAvgEnergyPJ = make(map[string]float64, 2)
			}
			name := route.RouteClass(c).String()
			r.RouteClassAvgLatency[name] = coll.RCLatSum[c] / float64(coll.RCPackets[c])
			r.RouteClassAvgEnergyPJ[name] = coll.RCEnergy[c] / float64(coll.RCPackets[c])
		}
		// The adaptive selector may sit inside the fault-failover wrapper.
		sel := e.selector
		if e.fsel != nil {
			sel = e.fsel.inner
		}
		if a, ok := sel.(*route.AdaptiveSelector); ok {
			r.RouteSpills = a.Spills
			r.RouteReturns = a.Returns
		}
	}
	return r, nil
}

// linkUtilization derives mean per-class link utilization from the energy
// meter's flit counts and the topology's link inventory. The wireless
// class is normalized by the fabric's actual concurrency budget — the
// sub-channel cap for the crossbar, the populated sub-channel count for
// the exclusive model — never by a raw wireless_channels value the fabric
// cannot realize.
func (e *Engine) linkUtilization() map[string]float64 {
	cycles := float64(e.now)
	if cycles == 0 {
		return nil
	}
	flitBits := float64(e.cfg.FlitBits)

	counts := map[energy.Class]float64{} // directed links per class
	for _, ed := range e.graph.Edges {
		counts[classOf(ed.Kind)] += 2
	}
	if e.fabric != nil {
		counts[energy.ClassWireless] = float64(e.fabric.ConcurrencyBudget())
	}

	// Iterate classes in sorted order: each key is written exactly once so
	// the resulting map is order-insensitive, but sorting keeps the loop
	// inside the detorder discipline rather than relying on that argument.
	classes := make([]energy.Class, 0, len(counts))
	for cl := range counts {
		classes = append(classes, cl)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	out := make(map[string]float64, len(counts))
	for _, cl := range classes {
		n := counts[cl]
		if n == 0 {
			continue
		}
		flits := float64(e.meter.Bits(cl)) / flitBits
		out[cl.String()] = flits / (n * cycles)
	}
	return out
}

// Run builds an engine from params and runs it.
func Run(p Params) (*Result, error) {
	e, err := New(p)
	if err != nil {
		return nil, err
	}
	return e.Run()
}

// CheckPipelineInvariants checks the engine's incrementally maintained
// state in one pass and reports the first drift (test and validation hook;
// call between steps or after Run). For every switch it recomputes the
// pipeline state (ready/rcReady/starved VC masks, buffered and waiting
// counters, the VA-pending flag) from the VC buffers and credits. For
// every switch and NI it checks park/wake membership in the activity set
// of its own shard:
//
//	not active ⇒ switch empty or Stalled;  NI Drained or Stalled
//	parked     ⇔ holds work (buffered flits; not Drained) and not active
//
// The first says no component that could act is missing from the sweeps
// (a dropped wake shows here the cycle after it was lost); the second that
// active ∪ parked is exactly the set of components holding work, the
// membership the quiescence probe relies on. Both hold at every step
// boundary on both scheduling paths: the full-tick loop never parks, and
// there every holder is active because a component joins on the event
// that gives it work. Each core NI's room flag must match its queue
// (noc.Endpoint.CheckRoomFlag). Last come the wireless fabric's MAC
// protocol state of every sub-channel (core.Fabric.CheckMACInvariants)
// and the watchdog's liveness bound.
func (e *Engine) CheckPipelineInvariants() error {
	for i, sw := range e.switches {
		if err := sw.CheckPipelineInvariants(); err != nil {
			return err
		}
		set := e.shards[e.swShard[i]].swActive
		active, parked := set.Contains(i), set.Parked(i)
		holds := sw.BufferedFlits() > 0
		if !active && holds && !sw.Stalled() {
			return fmt.Errorf("engine: switch %d holds %d flits and can act, but is not active", i, sw.BufferedFlits())
		}
		if parked != (holds && !active) {
			return fmt.Errorf("engine: switch %d parked=%v, active=%v, buffered=%d", i, parked, active, sw.BufferedFlits())
		}
	}
	for i, ep := range e.endpoints {
		set := e.shards[e.swShard[e.graph.Endpoints[i].Switch]].epActive
		active, parked := set.Contains(i), set.Parked(i)
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
	if e.fabric != nil {
		if err := e.fabric.CheckMACInvariants(); err != nil {
			return err
		}
	}
	if e.wd != nil {
		if err := e.wd.check(e.now); err != nil {
			return err
		}
	}
	return nil
}

// CheckFlitConservation verifies that every flit injected by an NI is
// either consumed at a destination or still inside the network (test and
// validation hook; call after Run).
func (e *Engine) CheckFlitConservation() error {
	var sent, consumed int64
	for _, ep := range e.endpoints {
		sent += ep.FlitsSent
		consumed += ep.FlitsConsumed
	}
	inNet := int64(0)
	for _, s := range e.switches {
		inNet += int64(s.BufferedFlits())
	}
	for _, l := range e.links {
		// A boundary-mailbox flit is neither on the wire nor in a switch
		// buffer (sharded execution; MailboxFlits is 0 otherwise).
		inNet += int64(l.InFlight() + l.MailboxFlits())
	}
	var dropped int64
	if e.fabric != nil {
		inNet += int64(e.fabric.BufferedTxFlits() + e.fabric.PendingLen())
		dropped = e.fabric.DroppedFlits
	}
	// NI-internal queues.
	var niHeld int64
	for _, ep := range e.endpoints {
		niHeld += int64(ep.InFlightFlits())
	}
	if sent != consumed+inNet+niHeld+dropped {
		return fmt.Errorf("engine: flit conservation violated: sent=%d consumed=%d in-network=%d ni-held=%d fault-dropped=%d",
			sent, consumed, inNet, niHeld, dropped)
	}
	return nil
}
