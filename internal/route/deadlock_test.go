package route

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"wimc/internal/config"
	"wimc/internal/sim"
	"wimc/internal/topo"
)

// substrateShortest builds unrestricted shortest-path tables on the
// substrate package, whose single serial links join the chips into rings —
// the routing buildSubstrateHier exists to avoid. workers bounds the build's
// pool, and the deadlock check's with it.
func substrateShortest(t *testing.T, chips, workers int) (*topo.Graph, *Tables) {
	t.Helper()
	g, err := topo.Build(config.MustXCYM(chips, config.DefaultStacks(chips), config.ArchSubstrate))
	if err != nil {
		t.Fatal(err)
	}
	rg := newRouteGraph(g, true)
	tb := &Tables{Mode: config.RouteShortest, Root: sim.NoSwitch, wireless: rg.isWI, workers: workers}
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
		g, tb := substrateShortest(t, tc.chips, 0)
		err := CheckDeadlockFreeUnion(g, tb)
		if err == nil || err.Error() != tc.want {
			t.Fatalf("%dC substrate shortest: got %v, want %q", tc.chips, err, tc.want)
		}
	}
}

// corruptedTables builds a valid 4-chip table for arch on a pool of
// workers and returns it with the destination whose column the caller
// corrupts: the last switch, so the route from switch 0 has at least two
// hops.
func corruptedTables(t *testing.T, arch config.Architecture, workers int) (*topo.Graph, *Tables, sim.SwitchID) {
	t.Helper()
	g, err := topo.Build(config.MustXCYM(4, 4, arch))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := buildSingle(g, workers, true)
	if err != nil {
		t.Fatal(err)
	}
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
		g, tb, d := corruptedTables(t, arch, 0)
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
		g, tb, d := corruptedTables(t, arch, 0)
		tb.Next[0][d] = sim.NoSwitch
		want := fmt.Sprintf("route: no progress from 0 toward %d", d)
		if err := CheckDeadlockFreeUnion(g, tb); err == nil || err.Error() != want {
			t.Fatalf("%s: got %v, want %q", arch, err, want)
		}
	}
}

// TestDeadlockCheckRejectsNonLink: a hop no link carries has no channel.
func TestDeadlockCheckRejectsNonLink(t *testing.T) {
	g, tb, d := corruptedTables(t, config.ArchInterposer, 0)
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

// TestDeadlockCheckWorkerCountInvariance: the check walks one chunk of
// (table, destination) epochs per worker of the pool the tables were built
// with and merges the chunks in epoch order, so its verdict and error text
// must be the same at every worker count, and so must each channel's
// successor list, which fixes the cycle the DFS reports. Under -race this
// is also the data-race test of the chunked walk.
func TestDeadlockCheckWorkerCountInvariance(t *testing.T) {
	type failing struct {
		name  string
		check func(workers int) error
	}
	var cases []failing
	for _, arch := range []config.Architecture{config.ArchInterposer, config.ArchWireless} {
		cases = append(cases,
			failing{"routing loop/" + string(arch), func(w int) error {
				g, tb, d := corruptedTables(t, arch, w)
				tb.Next[tb.Next[0][d]][d] = 0
				return CheckDeadlockFreeUnion(g, tb)
			}},
			failing{"missing hop/" + string(arch), func(w int) error {
				g, tb, d := corruptedTables(t, arch, w)
				tb.Next[0][d] = sim.NoSwitch
				return CheckDeadlockFreeUnion(g, tb)
			}})
	}
	cases = append(cases, failing{"non-link/interposer", func(w int) error {
		g, tb, d := corruptedTables(t, config.ArchInterposer, w)
		tb.Next[0][d] = tb.Next[tb.Next[0][d]][d]
		return CheckDeadlockFreeUnion(g, tb)
	}}, failing{"first and last column/interposer", func(w int) error {
		// Two failing chunks: the error of the lower one must win.
		g, tb, d := corruptedTables(t, config.ArchInterposer, w)
		tb.Next[0][1] = sim.NoSwitch
		tb.Next[0][d] = sim.NoSwitch
		return CheckDeadlockFreeUnion(g, tb)
	}})
	for _, chips := range []int{4, 8, 16} {
		cases = append(cases, failing{fmt.Sprintf("ring/%dC", chips), func(w int) error {
			g, tb := substrateShortest(t, chips, w)
			return CheckDeadlockFreeUnion(g, tb)
		}})
	}
	for _, tc := range cases {
		ref := tc.check(1)
		if ref == nil {
			t.Fatalf("%s: 1 worker: no error", tc.name)
		}
		for _, w := range []int{2, 3} {
			if err := tc.check(w); err == nil || err.Error() != ref.Error() {
				t.Fatalf("%s: %d workers: %v, 1 worker: %v", tc.name, w, err, ref)
			}
		}
	}

	// The graphs themselves are pinned too (every used or depended-on
	// channel with its successors, in channel order), so a walk that
	// records a wrong channel fails here even where the verdict holds.
	hybrid := config.MustXCYM(8, config.DefaultStacks(8), config.ArchHybrid)
	tree := config.MustXCYM(16, config.DefaultStacks(16), config.ArchWireless)
	tree.Routing = config.RouteTree
	for _, tc := range []struct {
		cfg    config.Config
		digest string
	}{
		{hybrid, "30750fa61345153e861f3b3488622339d1fb749789e487fc5c9865ed94689524"},
		{tree, "c6377fb87b1b31383356689a502bd1ef461ba34e74d26ca07db6a3308f033e9e"},
	} {
		cfg := tc.cfg
		g, err := topo.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ref *cdg
		for _, w := range []int{1, 2, 3} {
			ct, err := BuildClasses(g, w)
			if err != nil {
				t.Fatal(err)
			}
			d, err := buildCDG(g, ct.Tables())
			if err != nil {
				t.Fatalf("%s: %d workers: %v", cfg.Name, w, err)
			}
			if ref == nil {
				h := sha256.New()
				for c := range d.used {
					if succ := d.successors(int32(c)); d.used[c] || len(succ) > 0 {
						fmt.Fprintf(h, "%d %v %v\n", c, d.used[c], succ)
					}
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
					t.Fatalf("%s: dependency graph digest %s, pinned %s", cfg.Name, got, tc.digest)
				}
				ref = d
				continue
			}
			if !slices.Equal(d.used, ref.used) {
				t.Fatalf("%s: %d workers: used channels differ from 1 worker", cfg.Name, w)
			}
			for c := range ref.used {
				got, want := d.successors(int32(c)), ref.successors(int32(c))
				if !slices.Equal(got, want) {
					t.Fatalf("%s: %d workers: channel %d successors %v, 1 worker %v", cfg.Name, w, c, got, want)
				}
			}
		}
	}
}

// successors returns channel c's successors in insertion order.
func (d *cdg) successors(c int32) []int32 {
	var out []int32
	for e := d.depHead[c]; e >= 0; e = d.depNext[e] {
		out = append(out, d.depTo[e])
	}
	return out
}
