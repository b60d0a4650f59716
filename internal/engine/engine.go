package engine

import (
	"fmt"
	"io"

	"wimc/internal/config"
	"wimc/internal/core"
	"wimc/internal/energy"
	"wimc/internal/noc"
	"wimc/internal/route"
	"wimc/internal/sim"
	"wimc/internal/stats"
	"wimc/internal/topo"
	"wimc/internal/traffic"
)

// TrafficKind selects the workload generator.
type TrafficKind string

// Supported workload kinds.
const (
	TrafficUniform       TrafficKind = "uniform"
	TrafficHotspot       TrafficKind = "hotspot"
	TrafficTranspose     TrafficKind = "transpose"
	TrafficBitComplement TrafficKind = "bit-complement"
	TrafficApp           TrafficKind = "app"
)

// TrafficSpec parameterizes the workload.
type TrafficSpec struct {
	Kind            TrafficKind `json:"kind"`
	Rate            float64     `json:"rate"`         // packets/core/cycle (1.0 = saturation load)
	MemFraction     float64     `json:"mem_fraction"` // memory-access probability
	HotspotFraction float64     `json:"hotspot_fraction"`
	HotspotCore     int         `json:"hotspot_core"`
	App             string      `json:"app"`          // application name for TrafficApp
	PacketFlits     int         `json:"packet_flits"` // 0 = configuration default
	// MemReadFraction makes this share of memory packets read requests:
	// the DRAM channel answers each with a MemReplyFlits data packet after
	// MemServiceCycles (uniform traffic only).
	MemReadFraction float64 `json:"mem_read_fraction"`
}

// Params bundles everything needed to run one simulation.
type Params struct {
	Cfg     config.Config
	Traffic TrafficSpec
	// Trace, when non-nil, receives one JSON line per delivered packet
	// (id, endpoints, class, timing, hops, energy) — a packet-level trace
	// for debugging and external analysis.
	Trace io.Writer
	// EveryCycle disables the event-horizon fast-forward (Run ticks every
	// simulated cycle) while keeping active-set scheduling and sharding —
	// the reference path for the fast-forward equivalence regression and
	// for wimcsim -every-cycle. Results are byte-identical either way
	// (after zeroing the idle_cycles_skipped / drain-exit telemetry, which
	// is the only thing the skip path adds).
	EveryCycle bool
	// BuildWorkers bounds the worker pool used for routing-table
	// construction: <= 0 means runtime.GOMAXPROCS(0), 1 forces a
	// sequential build. Topology construction is always one sequential
	// pass. The built system is byte-identical for every value;
	// store.RunPoints sets 1 when its own pool already spans the cores
	// (nested parallelism would oversubscribe).
	BuildWorkers int

	// The two reference machines that package tests compare against;
	// nothing outside the package sets them.
	//
	// fullTick disables active-set scheduling and ticks every switch,
	// link and endpoint every cycle in stepFullTick, a separate loop that
	// forces one shard and implies EveryCycle. Results are cycle-identical
	// either way (TestActiveSetMatchesFullTick).
	fullTick bool
	// legacyMAC swaps the exclusive wireless fabric onto the retained
	// pre-sub-channel MAC (core/mac_legacy.go: one shared medium, one
	// global turn sequence), the reference for the K=1 equivalence
	// regression. Only meaningful with channel_assignment "single" and
	// wireless_channels 1; it models only the "rotate" policy, exports no
	// turn-queue load signals and has no fault hooks, so New rejects the
	// other policies, route_select "adaptive" and the fault model.
	legacyMAC bool
}

// Engine is an assembled simulation ready to run.
type Engine struct {
	cfg    config.Config
	graph  *topo.Graph
	tables *route.ClassTables
	meter  *energy.Meter
	coll   *stats.Collector
	rng    *sim.Rand

	// selector picks each packet's route class at injection; nil on
	// single-class systems and under static selection (class 0 always).
	selector route.Selector
	// fsel is the fault-failover wrapper around selector (hybrid
	// multi-class runs with the fault model active); nil otherwise.
	fsel *faultSelector
	// wd is the liveness watchdog, non-nil exactly while the fault model
	// is active (it doubles as the engine's faults-active flag).
	wd *watchdog
	// classPackets counts packets classified at injection per route class
	// (reported for adaptive runs).
	classPackets [route.NumClasses]int64

	switches  []*noc.Switch
	links     []*noc.Link
	endpoints []*noc.Endpoint
	fabric    *core.Fabric

	source   traffic.Source
	world    traffic.World
	pktFlits int
	nextPkt  uint64
	now      sim.Cycle

	// room holds one flag per core, kept by the core's NI equal to "the
	// source queue has room" (noc.Endpoint.SetRoomFlag; see doc.go for who
	// writes it when). gens is generate's packet buffer, grown to the most
	// packets one cycle has offered and reused, and genRefused counts the
	// generated packets of full cores, which no NI sees (results adds them
	// to Generated and Refused).
	room       []bool
	gens       []traffic.Gen
	genRefused int64

	genStop sim.Cycle // cycle after which traffic generation ceases

	// replies holds the pending DRAM read replies in delivery order. Every
	// reply is due MemServiceCycles after its request's delivery, a
	// constant within a run, so delivery order is due order: the due
	// replies are always a prefix, and a reply refused by a full source
	// queue keeps its place ahead of every later one.
	replies []pendingReply

	// fullTick hands every cycle to the reference everything-every-cycle
	// loop (see stepFullTick); otherwise the shards' activity sets decide
	// what ticks.
	fullTick  bool
	legacyMAC bool

	// Event-horizon fast-forward (see Run): everyCycle disables it (the
	// reference path; fullTick implies it), idleSkipped counts the cycles
	// Run jumped over, and drainExited / drainUsed record the drain-window
	// early exit (how many of the configured drain cycles were actually
	// needed before the system quiesced for good).
	everyCycle  bool
	idleSkipped int64
	drainExited bool
	drainUsed   int64

	// pool recycles delivered packets back into traffic generation.
	pool noc.PacketPool

	// Sharded execution (see shard.go): the row-band shards (exactly one
	// when serial), the shard of each switch, the worker barrier (started
	// by the first step), the two per-shard phases bound once, and reusable
	// merge scratch for the serial replays.
	shards        []*shard
	swShard       []int
	barrier       *shardBarrier
	pipelinePhase func(si int)
	endpointPhase func(si int)
	opScratch     []core.ShardOp
	eventScratch  []noc.Event

	trace    io.Writer
	traceErr error
}

// pendingReply is a DRAM data response awaiting issue.
type pendingReply struct {
	readyAt sim.Cycle
	request *noc.Packet
}

// New builds an engine from the parameters.
func New(p Params) (*Engine, error) {
	cfg := p.Cfg
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if p.legacyMAC && cfg.MACPolicyMode != config.PolicyRotate {
		return nil, fmt.Errorf("engine: the legacy single-channel MAC models only mac_policy %q, got %q",
			config.PolicyRotate, cfg.MACPolicyMode)
	}
	if p.legacyMAC && cfg.RouteSelectMode == config.SelectAdaptive {
		return nil, fmt.Errorf("engine: the legacy single-channel MAC exports no turn-queue load signals; route_select %q requires the sub-channel fabric",
			config.SelectAdaptive)
	}
	if p.legacyMAC && cfg.FaultModelActive() {
		return nil, fmt.Errorf("engine: the legacy single-channel MAC has no fault hooks; wireless_per / fault_schedule require the sub-channel fabric")
	}
	g, err := topo.Build(cfg)
	if err != nil {
		return nil, err
	}
	tables, err := route.BuildClasses(g, p.BuildWorkers)
	if err != nil {
		return nil, err
	}
	// Flits of different route classes share the physical channels, so
	// deadlock freedom must hold over the UNION of the class tables'
	// channel dependencies, not per table (see route.CheckDeadlockFreeUnion).
	if err := route.CheckDeadlockFreeUnion(g, tables.Tables()...); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	meter, err := energy.NewMeter(cfg.ClockGHz)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:        cfg,
		graph:      g,
		tables:     tables,
		meter:      meter,
		rng:        sim.NewRand(cfg.Seed),
		trace:      p.Trace,
		fullTick:   p.fullTick,
		everyCycle: p.EveryCycle || p.fullTick,
		legacyMAC:  p.legacyMAC,
	}
	e.coll = stats.NewCollector(cfg.WarmupCycles, cfg.WarmupCycles+cfg.MeasureCycles, cfg.FlitBits)
	e.genStop = cfg.WarmupCycles + cfg.MeasureCycles
	e.partition()
	e.build()
	if err := e.buildTraffic(p.Traffic); err != nil {
		return nil, err
	}
	return e, nil
}

// deliverPacket finalizes one delivered packet: statistics and watchdog
// release, DRAM read-reply scheduling, trace emission, pool recycling. A
// delivered read request is kept until its data reply is issued; a Faulted
// read request lost its payload crossing a failed transceiver, so the DRAM
// channel never sees it and no reply is scheduled. Serial-phase only: it
// runs as replayEndpointEvents replays the NIs' delivery events.
func (e *Engine) deliverPacket(now sim.Cycle, p *noc.Packet) {
	e.coll.OnDelivered(now, p)
	if e.wd != nil {
		e.wd.remove(p.ID)
	}
	keep := p.Read && p.Class == noc.ClassCoreToMem && !p.Faulted
	if keep {
		e.replies = append(e.replies, pendingReply{
			readyAt: now + sim.Cycle(e.cfg.MemServiceCycles),
			request: p,
		})
	}
	if e.trace != nil {
		e.tracePacket(p)
	}
	if !keep {
		e.pool.Put(p)
	}
}

// build instantiates switches, links, endpoints and the wireless fabric
// from the topology graph, puts each on its shard as it creates it, and
// hands each switch its rows of the route tables. A switch, the links
// leaving it, its WI and the NIs it hosts belong to the switch's shard
// (see partition): they join that shard's activity sets, log into its two
// logs and charge their energy to its meter part. The wireless fabric,
// which charges only in serial phases, charges the meter's root.
func (e *Engine) build() {
	cfg := e.cfg
	g := e.graph
	shardOf := func(sw sim.SwitchID) *shard { return e.shards[e.swShard[sw]] }

	// Switches, their port slices sized once. Wireless topologies
	// partition VCs into pre/post-wireless classes to keep shortcut
	// routing deadlock-free.
	ports := portCounts(g)
	e.switches = make([]*noc.Switch, g.SwitchCount())
	for i, n := range g.Nodes {
		s := shardOf(n.ID)
		sw := noc.NewSwitch(n.ID, ports[i], cfg.VCs, cfg.BufferDepth,
			cfg.FlitBits, cfg.SwitchPJPerBit, s.meter)
		sw.SetPhaseSplit(g.HasWireless(), cfg.PostWirelessVCs)
		sw.SetActivity(s.swActive, i)
		e.switches[i] = sw
	}

	// Wired links: two directed links per topology edge. Connect records
	// each link's port as its source switch's wired port toward the target.
	// A link within one shard is delivered under that shard's activity
	// set. A boundary link switches to mailbox halves and stays out of
	// activity scheduling: its halves run every cycle, and a link with no
	// ActiveSet no-ops its Add calls.
	addDirected := func(a, b sim.SwitchID, ed topo.Edge) {
		sa, sb := shardOf(a), shardOf(b)
		l := noc.NewLink(classOf(ed.Kind), ed.Latency, ed.Rate, ed.PJPerBit,
			cfg.FlitBits, sa.meter)
		src, dst := e.switches[a], e.switches[b]
		outP := src.AddOutputPort(l, cfg.BufferDepth)
		inP := dst.AddInputPort(l)
		l.Connect(src, outP, dst, inP)
		if sa == sb {
			l.SetActivity(sa.linkActive, len(e.links))
		} else {
			l.SetMailbox()
			sa.outBound = append(sa.outBound, l)
			sb.inBound = append(sb.inBound, l)
		}
		e.links = append(e.links, l)
	}
	for _, ed := range g.Edges {
		addDirected(ed.A, ed.B, ed)
		addDirected(ed.B, ed.A, ed)
	}

	// Wireless fabric. AddWI records each WI's output as its switch's WI
	// port and, on the exclusive model, makes it a member of its
	// sub-channel; the WI logs its fabric-global ops into its switch's
	// shard (replayed in S1).
	if g.HasWireless() {
		e.fabric = core.NewFabric(cfg, e.meter, e.rng.Derive("wireless"))
		if e.legacyMAC {
			e.fabric.SetLegacySingleChannel()
		}
		for _, swID := range g.WISwitches {
			n := g.Nodes[swID]
			w := e.fabric.AddWI(e.switches[swID], n.GX, n.GY)
			w.SetShardLog(&shardOf(swID).ops)
		}
	}

	// Endpoints. NewEndpoint adds each NI's two ports to its switch; the NI
	// logs its events into its switch's shard (replayed in S2), keyed by
	// global endpoint index.
	e.endpoints = make([]*noc.Endpoint, g.EndpointCount())
	for i, ep := range g.Endpoints {
		s := shardOf(ep.Switch)
		cl := energy.ClassLinkLocal
		if ep.Kind == topo.EndMemChannel {
			cl = energy.ClassLinkTSV
		}
		ne := noc.NewEndpoint(ep.ID, e.switches[ep.Switch], ep.LocalLatency, ep.LocalPJPerBit,
			cl, cfg.FlitBits, cfg.InjectionQueue, s.meter)
		ne.SetShard(s.epActive, i, &s.events)
		e.endpoints[i] = ne
	}

	// Routing: every switch routes from its own row of each class table,
	// shared with the tables rather than copied, and one endpoint-to-host
	// slice. A single-class system installs only the class-0 row; hybrid
	// multi-class systems add the wired-only row, looked up per packet by
	// its injection-time RouteClass. New's deadlock check walked every
	// switch pair of every table, so each hop a switch can route is a
	// wired edge or a wireless hop between two WIs (noc.Switch.Route).
	host := make([]sim.SwitchID, g.EndpointCount())
	for i, ep := range g.Endpoints {
		host[i] = ep.Switch
	}
	for s, sw := range e.switches {
		rows := make([][]sim.SwitchID, len(e.tables.Classes))
		for c, t := range e.tables.Classes {
			if t != nil {
				rows[c] = t.Next[s]
			}
		}
		sw.SetRoutes(host, rows...)
	}

	// Route selector: adaptive hybrid runs classify each packet at
	// injection (the NI's VC-bind point, where load signals are fresh —
	// under saturation the source queue delays packets far too long for a
	// generation-time decision to mean anything); everything else stays
	// class 0.
	if cfg.RouteSelectMode == config.SelectAdaptive && e.tables.MultiClass() {
		e.selector = route.NewAdaptiveSelector(e.tables, e.loadProbe)
	}

	// Fault model: activate the fabric's deterministic fault state, wrap
	// the selector with dead/degraded-WI failover onto the wired-only class
	// (hybrid multi-class builds), start the liveness watchdog, and observe
	// fabric fault events for the trace and watchdog bookkeeping.
	if e.fabric != nil && cfg.FaultModelActive() {
		e.fabric.InitFaults()
		if e.tables.MultiClass() {
			inner := e.selector
			if inner == nil {
				inner = route.StaticSelector{}
			}
			e.fsel = &faultSelector{inner: inner, ct: e.tables, fb: e.fabric}
			e.selector = e.fsel
		}
		e.wd = newWatchdog(watchdogBound(cfg))
		e.fabric.SetFaultNotifier(e.onFaultNotice)
	}

	// Traffic world.
	e.world = traffic.World{
		Chips:      cfg.Chips(),
		GlobalCols: cfg.ChipsX * cfg.CoresX,
		GlobalRows: cfg.ChipsY * cfg.CoresY,
	}
	for _, id := range g.Cores {
		ep := g.Endpoints[id]
		node := g.Nodes[ep.Switch]
		e.world.Cores = append(e.world.Cores, id)
		e.world.ChipOfCore = append(e.world.ChipOfCore, ep.Chip)
		e.world.CoreGX = append(e.world.CoreGX, node.GX)
		e.world.CoreGY = append(e.world.CoreGY, node.GY)
	}
	e.world.MemChannels = append(e.world.MemChannels, g.MemChannels...)
	e.room = make([]bool, len(e.world.Cores))
	for i, id := range e.world.Cores {
		e.endpoints[id].SetRoomFlag(&e.room[i])
	}
}

// portCounts returns how many input ports, and as many output ports, each
// switch gets from build: one per incident topology edge (the two directed
// links of an edge each add an output at one end and an input at the
// other), one per hosted endpoint and one for a WI.
func portCounts(g *topo.Graph) []int {
	n := make([]int, g.SwitchCount())
	for _, ed := range g.Edges {
		n[ed.A]++
		n[ed.B]++
	}
	for _, ep := range g.Endpoints {
		n[ep.Switch]++
	}
	for _, id := range g.WISwitches {
		n[id]++
	}
	return n
}

// classOf maps topology edge kinds to energy classes.
func classOf(k topo.EdgeKind) energy.Class {
	switch k {
	case topo.EdgeMesh:
		return energy.ClassLinkMesh
	case topo.EdgeInterposer:
		return energy.ClassLinkInterposer
	case topo.EdgeSerial:
		return energy.ClassLinkSerial
	case topo.EdgeWideIO:
		return energy.ClassLinkWideIO
	default:
		return energy.ClassLinkMesh
	}
}

// buildTraffic constructs the workload source.
func (e *Engine) buildTraffic(ts TrafficSpec) error {
	e.pktFlits = ts.PacketFlits
	if e.pktFlits <= 0 {
		e.pktFlits = e.cfg.PacketFlits
	}
	rng := e.rng.Derive("traffic")
	var (
		src traffic.Source
		err error
	)
	switch ts.Kind {
	case TrafficUniform, "":
		var u *traffic.Uniform
		u, err = traffic.NewUniform(e.world, ts.Rate, ts.MemFraction, e.pktFlits, rng)
		if err == nil && ts.MemReadFraction > 0 {
			err = u.SetReads(ts.MemReadFraction, e.cfg.MemRequestFlits)
		}
		src = u
	case TrafficHotspot:
		src, err = traffic.NewHotspot(e.world, ts.Rate, ts.MemFraction,
			ts.HotspotFraction, ts.HotspotCore, e.pktFlits, rng)
	case TrafficTranspose:
		src, err = traffic.NewTranspose(e.world, ts.Rate, e.pktFlits, rng)
	case TrafficBitComplement:
		src, err = traffic.NewBitComplement(e.world, ts.Rate, e.pktFlits, rng)
	case TrafficApp:
		src, err = traffic.NewApp(ts.App, e.world, rng)
	default:
		err = fmt.Errorf("engine: unknown traffic kind %q", ts.Kind)
	}
	if err != nil {
		return err
	}
	e.source = src
	return nil
}

// loadProbe supplies the adaptive selector's live load signals for a
// packet injected at src toward dst whose class-0 route transmits at the
// WI hosted on txWI.
func (e *Engine) loadProbe(txWI, src, dst sim.SwitchID) route.LoadSignals {
	var s route.LoadSignals
	if w, ok := e.fabric.WIBySwitch(txWI); ok {
		s.TxBacklog = w.TxLen()
		s.TxCapacity = w.TxCapacity()
		// Flits awaiting wireless transmission are all pre-wireless VC
		// class, so only the pre-wireless VC range of the host switch's
		// wireless output port can ever back up into the TX queues; the
		// realizable backlog ceiling is txDepth × pre-wireless VCs, and
		// using the physical capacity would put the spill threshold at
		// (or beyond) a level the backlog can never cross.
		if pre := e.cfg.VCs - e.cfg.PostWirelessVCs; pre > 0 && e.cfg.TXBufferFlits*pre < s.TxCapacity {
			s.TxCapacity = e.cfg.TXBufferFlits * pre
		}
		s.TurnQueueLen, s.TurnQueueMembers = e.fabric.TurnQueueDepth(w)
	}
	// Wired headroom: credit occupancy of the first hop the wired-only
	// route would take out of the source switch.
	wired := e.tables.Classes[route.ClassWiredOnly]
	if next := wired.Next[src][dst]; next != sim.NoSwitch && next != src {
		if port, ok := e.switches[src].PortToward(next); ok {
			s.WiredFreeCredits, s.WiredCreditCap = e.switches[src].CreditOccupancy(port)
		}
	}
	return s
}

// classifyPacket stamps a packet's route class as the NI binds it to an
// injection VC (replayed from the NIs' binding events only when a
// selector exists; single-class and static runs keep class 0).
func (e *Engine) classifyPacket(now sim.Cycle, p *noc.Packet) {
	var failoversBefore int64
	if e.fsel != nil {
		failoversBefore = e.fsel.Failovers
	}
	c := e.selector.Pick(now, e.graph.Endpoints[p.Src].Switch, e.graph.Endpoints[p.Dst].Switch)
	if int(c) >= int(route.NumClasses) {
		c = route.ClassWirelessPreferred
	}
	p.RouteClass = uint8(c)
	e.classPackets[c]++
	if e.fsel != nil && e.fsel.Failovers > failoversBefore && e.trace != nil {
		e.traceFault(now, core.FaultNotice{Kind: "failover", WI: -1, Pkt: p})
	}
}
