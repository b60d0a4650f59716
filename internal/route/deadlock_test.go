package route

import (
	"fmt"
	"testing"

	"wimc/internal/config"
	"wimc/internal/sim"
	"wimc/internal/topo"
)

// substrateShortest builds unrestricted shortest-path tables on the
// substrate package, whose single serial links join the chips into rings —
// the routing buildSubstrateHier exists to avoid.
func substrateShortest(t *testing.T, chips int) (*topo.Graph, *Tables) {
	t.Helper()
	g, err := topo.Build(config.MustXCYM(chips, config.DefaultStacks(chips), config.ArchSubstrate))
	if err != nil {
		t.Fatal(err)
	}
	rg := newRouteGraph(g, true)
	tb := &Tables{Mode: config.RouteShortest, Root: sim.NoSwitch, wireless: rg.isWI}
	if err = tb.buildShortest(rg); err != nil {
		t.Fatal(err)
	}
	return g, tb
}

// TestDeadlockCheckFindsRingCycle: minimal routing over the substrate's
// chip ring has a cyclic channel dependency, and the check must name the
// same hop every time (the DFS start order is fixed).
func TestDeadlockCheckFindsRingCycle(t *testing.T) {
	for _, tc := range []struct {
		chips int
		want  string
	}{
		{4, "route: channel dependency cycle through hop 19->20 (class 0)"},
		{8, "route: channel dependency cycle through hop 17->18 (class 0)"},
		{16, "route: channel dependency cycle through hop 35->36 (class 0)"},
	} {
		g, tb := substrateShortest(t, tc.chips)
		err := CheckDeadlockFreeUnion(g, tb)
		if err == nil || err.Error() != tc.want {
			t.Fatalf("%dC substrate shortest: got %v, want %q", tc.chips, err, tc.want)
		}
	}
}

// corruptedTables builds a valid table for arch and returns it with the
// destination whose column the caller corrupts: the last switch, so the
// route from switch 0 has at least two hops.
func corruptedTables(t *testing.T, arch config.Architecture) (*topo.Graph, *Tables, sim.SwitchID) {
	t.Helper()
	g, tb := buildTables(t, 4, arch, config.RouteShortest)
	d := sim.SwitchID(g.SwitchCount() - 1)
	if tb.HopCount(0, d) < 2 {
		t.Fatalf("%s: route 0->%d too short to corrupt", arch, d)
	}
	return g, tb, d
}

// TestDeadlockCheckFindsRoutingLoop: a 2-cycle in Next must be reported
// as a routing loop, not walked forever or mistaken for a memoized suffix.
func TestDeadlockCheckFindsRoutingLoop(t *testing.T) {
	for _, arch := range []config.Architecture{config.ArchInterposer, config.ArchWireless} {
		g, tb, d := corruptedTables(t, arch)
		b := tb.Next[0][d]
		tb.Next[b][d] = 0
		want := fmt.Sprintf("route: routing loop from 0 to %d", d)
		if err := CheckDeadlockFreeUnion(g, tb); err == nil || err.Error() != want {
			t.Fatalf("%s: got %v, want %q", arch, err, want)
		}
	}
}

// TestDeadlockCheckFindsMissingHop: a NoSwitch entry is no progress.
func TestDeadlockCheckFindsMissingHop(t *testing.T) {
	for _, arch := range []config.Architecture{config.ArchInterposer, config.ArchWireless} {
		g, tb, d := corruptedTables(t, arch)
		tb.Next[0][d] = sim.NoSwitch
		want := fmt.Sprintf("route: no progress from 0 toward %d", d)
		if err := CheckDeadlockFreeUnion(g, tb); err == nil || err.Error() != want {
			t.Fatalf("%s: got %v, want %q", arch, err, want)
		}
	}
}

// TestDeadlockCheckRejectsNonLink: a hop no link carries has no channel.
func TestDeadlockCheckRejectsNonLink(t *testing.T) {
	g, tb, d := corruptedTables(t, config.ArchInterposer)
	far := tb.Next[tb.Next[0][d]][d]
	tb.Next[0][d] = far
	want := fmt.Sprintf("route: hop 0->%d toward %d is not a link", far, d)
	if err := CheckDeadlockFreeUnion(g, tb); err == nil || err.Error() != want {
		t.Fatalf("got %v, want %q", err, want)
	}
}

// TestWiredHopBetweenWIsIsNotWireless: on the 8-chip hybrid, memory logic
// WI 64 shares a wide-I/O edge with chip WI 8, and class-0 routes take
// that hop. The engine forwards it over the wired port and keeps the
// packet's phase, so the check must model it as a wired channel of the
// current phase, not as the wireless medium. (IsWireless, and TxWI with
// it, still call the pair wireless.)
func TestWiredHopBetweenWIsIsNotWireless(t *testing.T) {
	g, ct := buildClassGraph(t, 8, config.ArchHybrid)
	primary := ct.Primary()
	const u, v = sim.SwitchID(8), sim.SwitchID(64)
	if g.Nodes[u].WI < 0 || g.Nodes[v].WI < 0 || g.Nodes[v].Kind != topo.KindMemLogic {
		t.Fatalf("switches %d and %d are no longer a chip WI and a memory WI", u, v)
	}
	if primary.Next[u][v] != v {
		t.Fatalf("class-0 route %d->%d no longer takes the direct hop", u, v)
	}
	if !primary.IsWireless(u, v) {
		t.Fatalf("IsWireless(%d, %d) changed; update this test and the TxWI follow-up", u, v)
	}
	lt := newLinkTable(g)
	for phase := int32(0); phase <= 1; phase++ {
		c, wl, ok := lt.channel(primary, u, v, phase)
		if !ok || wl || lt.ends[c/3] != [2]sim.SwitchID{u, v} || c%3 != phase {
			t.Fatalf("phase %d: hop %d->%d is channel %d (wireless %v, ok %v), want the wired link in class %d",
				phase, u, v, c, wl, ok, phase)
		}
	}
	// A WI pair with no wired edge stays a wireless hop.
	w := g.WISwitches[0]
	if w == u || w == v {
		w = g.WISwitches[1]
	}
	if c, wl, ok := lt.channel(primary, u, w, 0); !ok || !wl || c%3 != 2 {
		t.Fatalf("hop %d->%d: channel %d (wireless %v, ok %v), want the wireless medium", u, w, c, wl, ok)
	}
}
