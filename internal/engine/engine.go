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
	// FullTick disables active-set scheduling and ticks every switch, link
	// and endpoint every cycle — the reference scheduling path, a separate
	// loop that forces one shard. Results are cycle-identical either way
	// (the determinism regression test asserts it); FullTick exists to keep
	// that claim checkable forever. FullTick also implies EveryCycle.
	FullTick bool
	// EveryCycle disables the event-horizon fast-forward (Run ticks every
	// simulated cycle) while keeping active-set scheduling — the reference
	// path for the fast-forward equivalence regression, in the FullTick
	// tradition. It exists as its own knob because FullTick forces one
	// shard, while fast-forward identity must also be checkable under
	// sharded execution. Results are byte-identical either way (after
	// zeroing the idle_cycles_skipped / drain-exit telemetry, which is the
	// only thing the skip path adds).
	EveryCycle bool
	// LegacySingleChannel swaps the exclusive wireless fabric onto the
	// retained pre-sub-channel MAC (one shared medium, one global turn
	// sequence) — the reference path for the K=1 equivalence regression,
	// mirroring FullTick. Only meaningful with channel_assignment "single"
	// and wireless_channels 1; the legacy MAC models only the default
	// "rotate" arbitration policy (New rejects other policies), exports no
	// turn-queue load signals, and therefore also rejects route_select
	// "adaptive".
	LegacySingleChannel bool
	// SingleClassTable builds only the class-0 forwarding table and
	// installs it the pre-multi-class way — the reference path for the
	// route-selector equivalence regression, in the FullTick /
	// LegacySingleChannel tradition: TestStaticSelectorEquivalence asserts
	// byte-identical Result JSON between a route_select "static" run (which
	// builds and installs every class table but always picks class 0) and
	// this path. Models static selection only (New rejects "adaptive").
	SingleClassTable bool
	// BuildWorkers bounds the worker pool used for topology and
	// routing-table construction: <= 0 means runtime.GOMAXPROCS(0), 1
	// forces sequential construction. The built system is byte-identical
	// for every value; the experiment runner sets 1 when its own pool
	// already spans the cores (nested parallelism would oversubscribe).
	BuildWorkers int
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
	// outToward lists, per switch, the wired output port feeding each
	// neighbor (the forwarding fill and the selector's wired-headroom
	// probe look ports up through portToward).
	outToward [][]wiredPort
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

	// Pending DRAM read replies: a min-heap keyed by (readyAt, seq) so the
	// cycle loop touches only due replies instead of scanning the whole
	// slice. Because MemServiceCycles is constant within a run, readyAt is
	// nondecreasing in insertion order and heap order equals the insertion
	// order the pre-heap implementation used — reply packet IDs are
	// byte-identical. retryScratch holds replies refused by a full source
	// queue until they re-enter the heap for the next cycle.
	replies      replyHeap
	replySeq     uint64
	retryScratch []pendingReply

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
	// when serial) and the recorded link endpoints (for boundary
	// classification). The rest is multi-shard only: the persistent worker
	// barrier, the two parallel phases bound once, and reusable merge
	// scratch for the serial replays.
	shards        []*shard
	linkEnds      [][2]sim.SwitchID
	barrier       *shardBarrier
	pipelinePhase func(si int)
	endpointPhase func(si int)
	opScratch     []core.ShardOp
	eventScratch  []epEvent

	trace    io.Writer
	traceErr error
}

// pendingReply is a DRAM data response awaiting issue.
type pendingReply struct {
	readyAt sim.Cycle
	seq     uint64 // insertion order, the heap tiebreak
	request *noc.Packet
}

// replyHeap is a min-heap of pendingReply ordered by (readyAt, seq).
type replyHeap []pendingReply

func (h replyHeap) less(i, j int) bool {
	if h[i].readyAt != h[j].readyAt {
		return h[i].readyAt < h[j].readyAt
	}
	return h[i].seq < h[j].seq
}

func (h *replyHeap) push(pr pendingReply) {
	*h = append(*h, pr)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h).less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *replyHeap) pop() pendingReply {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = pendingReply{}
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && (*h).less(l, smallest) {
			smallest = l
		}
		if r < n && (*h).less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}

// New builds an engine from the parameters.
func New(p Params) (*Engine, error) {
	cfg := p.Cfg
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if p.LegacySingleChannel && cfg.MACPolicyMode != config.PolicyRotate {
		return nil, fmt.Errorf("engine: the legacy single-channel MAC models only mac_policy %q, got %q",
			config.PolicyRotate, cfg.MACPolicyMode)
	}
	if p.LegacySingleChannel && cfg.RouteSelectMode == config.SelectAdaptive {
		return nil, fmt.Errorf("engine: the legacy single-channel MAC exports no turn-queue load signals; route_select %q requires the sub-channel fabric",
			config.SelectAdaptive)
	}
	if p.SingleClassTable && cfg.RouteSelectMode == config.SelectAdaptive {
		return nil, fmt.Errorf("engine: the single-class reference table models only route_select %q, got %q",
			config.SelectStatic, config.SelectAdaptive)
	}
	if p.LegacySingleChannel && cfg.FaultModelActive() {
		return nil, fmt.Errorf("engine: the legacy single-channel MAC has no fault hooks; wireless_per / fault_schedule require the sub-channel fabric")
	}
	if p.SingleClassTable && cfg.FaultModelActive() {
		return nil, fmt.Errorf("engine: the single-class reference table has no wired-only failover class; wireless_per / fault_schedule require the multi-class build")
	}
	g, err := topo.BuildWorkers(cfg, p.BuildWorkers)
	if err != nil {
		return nil, err
	}
	var tables *route.ClassTables
	if p.SingleClassTable {
		// Reference path: exactly the pre-multi-class build, one table.
		t, terr := route.BuildWorkers(g, p.BuildWorkers)
		if terr != nil {
			return nil, terr
		}
		tables = &route.ClassTables{}
		tables.Classes[route.ClassWirelessPreferred] = t
	} else {
		tables, err = route.BuildClasses(g, p.BuildWorkers)
		if err != nil {
			return nil, err
		}
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
		fullTick:   p.FullTick,
		everyCycle: p.EveryCycle || p.FullTick,
		legacyMAC:  p.LegacySingleChannel,
	}
	e.coll = stats.NewCollector(cfg.WarmupCycles, cfg.WarmupCycles+cfg.MeasureCycles, cfg.FlitBits)
	e.genStop = cfg.WarmupCycles + cfg.MeasureCycles
	if err := e.build(); err != nil {
		return nil, err
	}
	if err := e.buildTraffic(p.Traffic); err != nil {
		return nil, err
	}
	e.buildShards()
	return e, nil
}

// deliverPacket finalizes one delivered packet: statistics and watchdog
// release, DRAM read-reply scheduling, trace emission, pool recycling. A
// delivered read request is kept until its data reply is issued; a Faulted
// read request lost its payload crossing a failed transceiver, so the DRAM
// channel never sees it and no reply is scheduled. Serial-phase only: a
// one-shard engine's endpoints call it directly from the inline NI phase;
// with more shards they defer into per-shard event logs that replay
// through here at the cycle's synchronization point.
func (e *Engine) deliverPacket(now sim.Cycle, p *noc.Packet) {
	e.coll.OnDelivered(now, p)
	if e.wd != nil {
		e.wd.remove(p.ID)
	}
	keep := p.Read && p.Class == noc.ClassCoreToMem && !p.Faulted
	if keep {
		e.replies.push(pendingReply{
			readyAt: now + sim.Cycle(e.cfg.MemServiceCycles),
			seq:     e.replySeq,
			request: p,
		})
		e.replySeq++
	}
	if e.trace != nil {
		e.tracePacket(p)
	}
	if !keep {
		e.pool.Put(p)
	}
}

// build instantiates switches, links, endpoints, the wireless fabric and
// forwarding tables from the topology graph.
func (e *Engine) build() error {
	cfg := e.cfg
	g := e.graph

	// Switches. Wireless topologies partition VCs into pre/post-wireless
	// classes to keep shortcut routing deadlock-free.
	e.switches = make([]*noc.Switch, g.SwitchCount())
	for i, n := range g.Nodes {
		sw := noc.NewSwitch(n.ID, cfg.VCs, cfg.BufferDepth,
			cfg.FlitBits, cfg.SwitchPJPerBit, e.meter)
		sw.SetPhaseSplit(g.HasWireless(), cfg.PostWirelessVCs)
		e.switches[i] = sw
	}

	// Wired links: two directed links per topology edge.
	e.outToward = make([][]wiredPort, g.SwitchCount())
	addDirected := func(a, b sim.SwitchID, ed topo.Edge) {
		l := noc.NewLink(classOf(ed.Kind), ed.Latency, ed.Rate, ed.PJPerBit,
			cfg.FlitBits, e.meter)
		src, dst := e.switches[a], e.switches[b]
		outP := src.AddOutputPort(l, cfg.BufferDepth)
		inP := dst.AddInputPort(l)
		l.Connect(src, outP, dst, inP)
		e.setPortToward(a, b, outP)
		e.links = append(e.links, l)
		e.linkEnds = append(e.linkEnds, [2]sim.SwitchID{a, b})
	}
	for _, ed := range g.Edges {
		addDirected(ed.A, ed.B, ed)
		addDirected(ed.B, ed.A, ed)
	}

	// Wireless fabric.
	wiOutPort := make(map[sim.SwitchID]int, len(g.WISwitches))
	if g.HasWireless() {
		e.fabric = core.NewFabric(cfg, e.meter, e.rng.Derive("wireless"))
		if e.legacyMAC {
			e.fabric.SetLegacySingleChannel()
		}
		for _, swID := range g.WISwitches {
			n := g.Nodes[swID]
			w := e.fabric.AddWI(e.switches[swID], n.GX, n.GY)
			wiOutPort[swID] = w.OutPort()
		}
	}

	// Endpoints. Each NI reports deliveries through e.deliverPacket
	// (directly on one shard; through the per-shard event logs on more —
	// see shard.go).
	e.endpoints = make([]*noc.Endpoint, g.EndpointCount())
	localOut := make([]int, g.EndpointCount())
	for i, ep := range g.Endpoints {
		sw := e.switches[ep.Switch]
		inP := sw.AddInputPort(nil)
		outP := sw.AddOutputPort(nil, cfg.BufferDepth)
		cl := energy.ClassLinkLocal
		if ep.Kind == topo.EndMemChannel {
			cl = energy.ClassLinkTSV
		}
		ne := noc.NewEndpoint(ep.ID, sw, inP, outP, ep.LocalLatency, ep.LocalPJPerBit,
			cl, cfg.FlitBits, cfg.InjectionQueue, e.deliverPacket, e.meter)
		sw.SetInputCredit(inP, ne)
		sw.SetOutputConduit(outP, ne)
		e.endpoints[i] = ne
		localOut[i] = outP
	}

	// Forwarding tables (endpoint granularity), one per route class. A
	// single-class system installs exactly the class-0 table; hybrid
	// multi-class systems add the wired-only table, looked up per packet
	// by its injection-time RouteClass.
	for sIdx, sw := range e.switches {
		s := sim.SwitchID(sIdx)
		for ci, tbl := range e.tables.Classes {
			if tbl == nil {
				continue
			}
			fwd := make([]noc.PortHop, g.EndpointCount())
			for eIdx, ep := range g.Endpoints {
				if ep.Switch == s {
					fwd[eIdx] = noc.PortHop{Port: int16(localOut[eIdx]), Next: sim.NoSwitch}
					continue
				}
				next := tbl.Next[s][ep.Switch]
				if next == sim.NoSwitch {
					return fmt.Errorf("engine: class %d: no route from switch %d to endpoint %d", ci, s, ep.ID)
				}
				if p, ok := e.portToward(s, next); ok {
					fwd[eIdx] = noc.PortHop{Port: int16(p), Next: next}
				} else if tbl.IsWireless(s, next) {
					p, ok := wiOutPort[s]
					if !ok {
						return fmt.Errorf("engine: switch %d routed onto wireless but has no WI", s)
					}
					fwd[eIdx] = noc.PortHop{Port: int16(p), Next: next}
				} else {
					return fmt.Errorf("engine: class %d: switch %d has no port toward %d", ci, s, next)
				}
			}
			sw.SetForwardingClass(ci, fwd)
		}
	}

	// Route selector: adaptive hybrid runs classify each packet at
	// injection (the NI's VC-bind point, where load signals are fresh —
	// under saturation the source queue delays packets far too long for a
	// generation-time decision to mean anything); everything else stays
	// class 0 with the injection path untouched.
	if cfg.RouteSelectMode == config.SelectAdaptive && e.tables.MultiClass() {
		e.selector = route.NewAdaptiveSelector(e.tables, e.loadProbe)
		for _, ep := range e.endpoints {
			ep.SetClassifier(e.classifyPacket)
		}
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
			for _, ep := range e.endpoints {
				ep.SetClassifier(e.classifyPacket)
			}
		}
		e.wd = newWatchdog(watchdogBound(cfg))
		for _, ep := range e.endpoints {
			ep.SetInjectionHook(e.wd.onInjected)
		}
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
	return nil
}

// wiredPort is one wired output port of a switch and the neighbor it feeds.
type wiredPort struct {
	to   sim.SwitchID
	port int
}

// setPortToward records port as s's wired output toward next. A later
// port toward the same neighbor replaces the earlier one.
func (e *Engine) setPortToward(s, next sim.SwitchID, port int) {
	ps := e.outToward[s]
	for i := range ps {
		if ps[i].to == next {
			ps[i].port = port
			return
		}
	}
	e.outToward[s] = append(ps, wiredPort{to: next, port: port})
}

// portToward returns s's wired output port toward next, if a wired edge
// joins them. A switch has a handful of wired neighbors, so a scan beats
// any index.
func (e *Engine) portToward(s, next sim.SwitchID) (int, bool) {
	for _, p := range e.outToward[s] {
		if p.to == next {
			return p.port, true
		}
	}
	return 0, false
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

// Graph exposes the topology (inspection/tests).
func (e *Engine) Graph() *topo.Graph { return e.graph }

// Tables exposes the class-0 routing tables (inspection/tests).
func (e *Engine) Tables() *route.Tables { return e.tables.Primary() }

// ClassTables exposes the per-class routing tables (inspection/tests).
func (e *Engine) ClassTables() *route.ClassTables { return e.tables }

// Selector exposes the route selector, nil when every packet is class 0
// (inspection/tests).
func (e *Engine) Selector() route.Selector { return e.selector }

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
		if port, ok := e.portToward(src, next); ok {
			s.WiredFreeCredits, s.WiredCreditCap = e.switches[src].Output(port).CreditOccupancy()
		}
	}
	return s
}

// classifyPacket stamps a packet's route class as the NI binds it to an
// injection VC (installed on every endpoint only when a selector exists,
// so single-class and static runs leave the injection path untouched).
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

// Fabric exposes the wireless fabric, nil for wired architectures.
func (e *Engine) Fabric() *core.Fabric { return e.fabric }

// Endpoints exposes the network interfaces (tests).
func (e *Engine) Endpoints() []*noc.Endpoint { return e.endpoints }

// Switches exposes the switches (tests).
func (e *Engine) Switches() []*noc.Switch { return e.switches }

// Collector exposes the statistics collector (tests).
func (e *Engine) Collector() *stats.Collector { return e.coll }

// Meter exposes the energy meter (tests).
func (e *Engine) Meter() *energy.Meter { return e.meter }
