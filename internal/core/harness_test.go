package core

import (
	"testing"

	"wimc/internal/config"
	"wimc/internal/energy"
	"wimc/internal/noc"
	"wimc/internal/sim"
)

// rig is a minimal all-wireless network: n switches, each hosting one WI
// and one endpoint; every route crosses the wireless fabric. The WIs log
// into ops and the NIs into events, which the rig replays and drains each
// cycle, as a one-shard engine does.
type rig struct {
	cfg       config.Config
	meter     *energy.Meter
	fabric    *Fabric
	switches  []*noc.Switch
	endpoints []*noc.Endpoint
	wis       []*WI
	ops       []ShardOp
	events    []noc.Event
	delivered []*noc.Packet
	now       sim.Cycle
}

// testConfig returns a small wireless configuration for fabric tests.
func testConfig() config.Config {
	cfg := config.Default()
	cfg.VCs = 4
	cfg.BufferDepth = 4
	cfg.TXBufferFlits = 8
	cfg.PacketFlits = 8
	cfg.WirelessChannels = 16 // unconstrained unless a test overrides
	cfg.PostWirelessVCs = 2
	return cfg
}

func newRig(t *testing.T, n int, cfg config.Config) *rig {
	t.Helper()
	m, err := energy.NewMeter(cfg.ClockGHz)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{cfg: cfg, meter: m}
	r.fabric = NewFabric(cfg, m, sim.NewRand(7).Derive("wireless-test"))

	for i := 0; i < n; i++ {
		sw := noc.NewSwitch(sim.SwitchID(i), 2, cfg.VCs, cfg.BufferDepth, cfg.FlitBits, 0, m.Root())
		sw.SetPhaseSplit(true, cfg.PostWirelessVCs)
		r.switches = append(r.switches, sw)
		// WIs sit on a line along x: spatial-reuse zones become contiguous
		// index ranges, which the sub-channel tests rely on.
		w := r.fabric.AddWI(sw, i, 0)
		w.SetShardLog(&r.ops)
		r.wis = append(r.wis, w)
	}
	for i, sw := range r.switches {
		ep := noc.NewEndpoint(sim.EndpointID(i), sw, 1, 0,
			energy.ClassLinkLocal, cfg.FlitBits, 64, m.Root())
		ep.SetShard(nil, i, &r.events)
		r.endpoints = append(r.endpoints, ep)
	}
	// Routing: endpoint j is hosted by switch j, and every switch reaches
	// every other in one hop; with no wired edge, that hop leaves through
	// the WI port AddWI recorded.
	host := make([]sim.SwitchID, n)
	row := make([]sim.SwitchID, n)
	for j := range host {
		host[j], row[j] = sim.SwitchID(j), sim.SwitchID(j)
	}
	for _, sw := range r.switches {
		sw.SetRoutes(host, row)
	}
	return r
}

func (r *rig) step() {
	r.fabric.Launch(r.now)
	r.sweep()
	r.fabric.Deliver(r.now)
	r.tickEndpoints()
	r.now++
}

// sweep runs the switch pipelines, then replays the WIs' op log.
func (r *rig) sweep() {
	for _, sw := range r.switches {
		sw.TickSAST(r.now)
	}
	for _, sw := range r.switches {
		sw.TickVA(r.now)
	}
	for _, sw := range r.switches {
		sw.TickRC(r.now)
	}
	r.fabric.ReplayShardOps(r.now, r.ops)
	r.ops = r.ops[:0]
}

// tickEndpoints ticks the NIs, then drains their event log: each delivered
// packet goes to delivered.
func (r *rig) tickEndpoints() {
	for _, ep := range r.endpoints {
		ep.Tick(r.now)
	}
	for _, ev := range r.events {
		if ev.Kind == noc.EvDelivered {
			r.delivered = append(r.delivered, ev.Pkt)
		}
	}
	r.events = r.events[:0]
}

func (r *rig) run(cycles int) {
	for i := 0; i < cycles; i++ {
		r.step()
	}
}

// send queues a packet from endpoint src to endpoint dst.
func (r *rig) send(t *testing.T, id uint64, src, dst, flits int) *noc.Packet {
	t.Helper()
	p := &noc.Packet{
		ID:       id,
		Src:      sim.EndpointID(src),
		Dst:      sim.EndpointID(dst),
		NumFlits: flits,
		Class:    noc.ClassCoreToCore,
	}
	if !r.endpoints[src].Offer(p) {
		t.Fatalf("offer refused for packet %d", id)
	}
	return p
}
