package core

import (
	"testing"

	"wimc/internal/config"
	"wimc/internal/energy"
	"wimc/internal/noc"
	"wimc/internal/sim"
)

// rig is a minimal all-wireless network: n switches, each hosting one WI
// and one endpoint; every route crosses the wireless fabric.
type rig struct {
	cfg       config.Config
	meter     *energy.Meter
	fabric    *Fabric
	switches  []*noc.Switch
	endpoints []*noc.Endpoint
	wis       []*WI
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

	onDeliver := func(_ sim.Cycle, p *noc.Packet) { r.delivered = append(r.delivered, p) }

	for i := 0; i < n; i++ {
		sw := noc.NewSwitch(sim.SwitchID(i), cfg.VCs, cfg.BufferDepth, cfg.FlitBits, 0, m)
		sw.SetPhaseSplit(true, cfg.PostWirelessVCs)
		r.switches = append(r.switches, sw)
		// WIs sit on a line along x: spatial-reuse zones become contiguous
		// index ranges, which the sub-channel tests rely on.
		r.wis = append(r.wis, r.fabric.AddWI(sw, i, 0))
	}
	for i, sw := range r.switches {
		in := sw.AddInputPort(nil)
		out := sw.AddOutputPort(nil, cfg.BufferDepth)
		ep := noc.NewEndpoint(sim.EndpointID(i), sw, in, out, 1, 0,
			energy.ClassLinkLocal, cfg.FlitBits, 64, onDeliver, m)
		sw.SetInputCredit(in, ep)
		sw.SetOutputConduit(out, ep)
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
	for _, sw := range r.switches {
		sw.TickSAST(r.now)
	}
	for _, sw := range r.switches {
		sw.TickVA(r.now)
	}
	for _, sw := range r.switches {
		sw.TickRC(r.now)
	}
	r.fabric.Deliver(r.now)
	for _, ep := range r.endpoints {
		ep.Tick(r.now)
	}
	r.now++
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
