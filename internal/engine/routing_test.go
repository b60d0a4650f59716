package engine

import (
	"testing"

	"wimc/internal/config"
	"wimc/internal/route"
	"wimc/internal/sim"
)

// TestSwitchRouteMatchesClassTables checks the route lookup TickRC uses
// against the class tables for every switch, class and endpoint: a hosted
// endpoint has no next hop; any other endpoint goes to next =
// Next[s][host] of the packet's class (class 0 when the class has no
// table), through the wired port toward next (PortToward) when a wired
// edge joins them and over a wireless hop from s's WI otherwise. That
// each port feeds its link, NI or WI is the noc tests' to check
// (TestSwitchRoute, TestEndpointAttachesItsPorts).
//
// Switches route without validating their rows, because New's
// CheckDeadlockFreeUnion has already rejected every table a switch could
// not route by. Its walks start from every switch pair of every class
// table and check each hop before anything else: "no progress" rejects a
// missing or self next hop, and "not a link" rejects a hop that is
// neither a wired edge nor a wireless hop. IsWireless holds only between
// two WI switches, so a wireless hop always finds a WI port.
//
// The 8-chip hybrid has two classes and WI pairs that a wide-I/O edge
// also joins (TestWiredHopBetweenWIsIsNotWireless): those hops must take
// the wire. The 16-chip wireless tree has one class, so class 1 falls
// back to class 0.
func TestSwitchRouteMatchesClassTables(t *testing.T) {
	hybrid := config.MustXCYM(8, config.DefaultStacks(8), config.ArchHybrid)
	tree := config.MustXCYM(16, config.DefaultStacks(16), config.ArchWireless)
	tree.Routing = config.RouteTree
	for _, cfg := range []config.Config{hybrid, tree} {
		e, err := New(Params{Cfg: cfg, Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.01}})
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		g, ct := e.graph, e.tables
		if got := ct.MultiClass(); got != (cfg.Arch == config.ArchHybrid) {
			t.Fatalf("%s: MultiClass = %v", cfg.Name, got)
		}
		// A topology edge joins two switches by wire.
		wired := make(map[[2]sim.SwitchID]bool, len(g.Edges))
		for _, ed := range g.Edges {
			wired[[2]sim.SwitchID{ed.A, ed.B}] = true
			wired[[2]sim.SwitchID{ed.B, ed.A}] = true
		}
		wiredWIHops := 0
		for s, sw := range e.switches {
			for c := route.RouteClass(0); c < route.NumClasses; c++ {
				tb := ct.Class(c)
				for epi, ep := range g.Endpoints {
					port, next := sw.Route(uint8(c), sim.EndpointID(epi))
					if ep.Switch == sim.SwitchID(s) {
						if next != sim.NoSwitch {
							t.Fatalf("%s: switch %d class %d: hosted endpoint %d routes to port %d, next %d",
								cfg.Name, s, c, epi, port, next)
						}
						continue
					}
					want := tb.Next[s][ep.Switch]
					if next != want {
						t.Fatalf("%s: switch %d class %d endpoint %d: next %d, table says %d",
							cfg.Name, s, c, epi, next, want)
					}
					if wired[[2]sim.SwitchID{sim.SwitchID(s), next}] {
						if wp, ok := sw.PortToward(next); !ok || port != wp {
							t.Fatalf("%s: switch %d class %d endpoint %d: port %d is not the wired port toward %d",
								cfg.Name, s, c, epi, port, next)
						}
						if tb.IsWireless(sim.SwitchID(s), next) {
							wiredWIHops++
						}
						continue
					}
					_, ok := e.fabric.WIBySwitch(sim.SwitchID(s))
					if !ok || !tb.IsWireless(sim.SwitchID(s), next) {
						t.Fatalf("%s: switch %d class %d endpoint %d: hop to %d is neither wired nor through the WI",
							cfg.Name, s, c, epi, next)
					}
				}
			}
		}
		if cfg.Arch == config.ArchHybrid && wiredWIHops == 0 {
			t.Fatalf("%s: no route takes a wired hop between two WIs; the precedence goes unchecked", cfg.Name)
		}
	}
}
