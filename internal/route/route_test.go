package route

import (
	"testing"
	"testing/quick"

	"wimc/internal/config"
	"wimc/internal/sim"
	"wimc/internal/topo"
)

func buildTables(t *testing.T, chips int, arch config.Architecture, mode config.RoutingMode) (*topo.Graph, *Tables) {
	t.Helper()
	cfg := config.MustXCYM(chips, 4, arch)
	cfg.Routing = mode
	g, err := topo.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := buildSingle(g, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	return g, tb
}

// everyPreset runs fn for every (chips, arch, mode) combination.
func everyPreset(t *testing.T, fn func(t *testing.T, g *topo.Graph, tb *Tables)) {
	t.Helper()
	for _, chips := range []int{1, 4, 8} {
		for _, arch := range []config.Architecture{
			config.ArchSubstrate, config.ArchInterposer, config.ArchWireless, config.ArchHybrid,
		} {
			for _, mode := range []config.RoutingMode{config.RouteShortest, config.RouteTree} {
				chips, arch, mode := chips, arch, mode
				t.Run(string(arch)+"/"+string(mode)+"/"+string(rune('0'+chips)), func(t *testing.T) {
					g, tb := buildTables(t, chips, arch, mode)
					fn(t, g, tb)
				})
			}
		}
	}
}

func TestAllPresetsDeadlockFree(t *testing.T) {
	everyPreset(t, func(t *testing.T, g *topo.Graph, tb *Tables) {
		if err := CheckDeadlockFreeUnion(g, tb); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllPairsReachable(t *testing.T) {
	everyPreset(t, func(t *testing.T, g *topo.Graph, tb *Tables) {
		n := g.SwitchCount()
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				p := tb.Path(sim.SwitchID(s), sim.SwitchID(d))
				if p == nil {
					t.Fatalf("no path %d -> %d", s, d)
				}
				if p[0] != sim.SwitchID(s) || p[len(p)-1] != sim.SwitchID(d) {
					t.Fatalf("path endpoints wrong: %v", p)
				}
			}
		}
	})
}

func TestMemorySwitchesNeverTransit(t *testing.T) {
	everyPreset(t, func(t *testing.T, g *topo.Graph, tb *Tables) {
		n := g.SwitchCount()
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				p := tb.Path(sim.SwitchID(s), sim.SwitchID(d))
				for i := 1; i < len(p)-1; i++ {
					if g.Nodes[p[i]].Kind == topo.KindMemLogic {
						t.Fatalf("path %d->%d transits memory switch %d: %v", s, d, p[i], p)
					}
				}
			}
		}
	})
}

func TestAtMostOneWirelessHopPerPath(t *testing.T) {
	g, tb := buildTables(t, 4, config.ArchWireless, config.RouteShortest)
	n := g.SwitchCount()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			p := tb.Path(sim.SwitchID(s), sim.SwitchID(d))
			hops := 0
			for i := 0; i+1 < len(p); i++ {
				if tb.IsWireless(p[i], p[i+1]) {
					hops++
				}
			}
			if hops > 1 {
				t.Fatalf("path %d->%d takes %d wireless hops: %v", s, d, hops, p)
			}
		}
	}
}

// TestIntraChipShortestIsManhattan checks that pure-mesh routes are minimal:
// within one chip of the interposer system, hop count equals Manhattan
// distance.
func TestIntraChipShortestIsManhattan(t *testing.T) {
	g, tb := buildTables(t, 4, config.ArchInterposer, config.RouteShortest)
	for _, a := range g.Nodes {
		if a.Kind != topo.KindCore {
			continue
		}
		for _, b := range g.Nodes {
			if b.Kind != topo.KindCore || a.Chip != b.Chip {
				continue
			}
			want := abs(a.GX-b.GX) + abs(a.GY-b.GY)
			if got := hops(tb, a.ID, b.ID); got != want {
				t.Fatalf("intra-chip hops (%d,%d)->(%d,%d) = %d, want %d",
					a.GX, a.GY, b.GX, b.GY, got, want)
			}
		}
	}
}

// TestIntraChipIsXY checks the tie-break yields XY (X-first) routes inside
// chip meshes, the basis of the deadlock argument.
func TestIntraChipIsXY(t *testing.T) {
	g, tb := buildTables(t, 4, config.ArchInterposer, config.RouteShortest)
	for _, a := range g.Nodes {
		if a.Kind != topo.KindCore {
			continue
		}
		for _, b := range g.Nodes {
			if b.Kind != topo.KindCore || a.Chip != b.Chip || a.ID == b.ID {
				continue
			}
			p := tb.Path(a.ID, b.ID)
			movedY := false
			for i := 0; i+1 < len(p); i++ {
				u, v := g.Nodes[p[i]], g.Nodes[p[i+1]]
				if u.GY != v.GY {
					movedY = true
				} else if movedY {
					t.Fatalf("route (%d,%d)->(%d,%d) turns back to X after Y: %v",
						a.GX, a.GY, b.GX, b.GY, p)
				}
			}
		}
	}
}

func TestTreeModeRoutesFollowOneTree(t *testing.T) {
	g, tb := buildTables(t, 4, config.ArchInterposer, config.RouteTree)
	if tb.Root == sim.NoSwitch {
		t.Fatal("tree mode has no root")
	}
	// Collect the set of directed hops used by all routes; in tree routing
	// the undirected hop set must be exactly a tree (N-1 edges, for the N
	// switches reachable).
	used := map[[2]sim.SwitchID]bool{}
	n := g.SwitchCount()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			p := tb.Path(sim.SwitchID(s), sim.SwitchID(d))
			for i := 0; i+1 < len(p); i++ {
				a, b := p[i], p[i+1]
				if a > b {
					a, b = b, a
				}
				used[[2]sim.SwitchID{a, b}] = true
			}
		}
	}
	if len(used) != n-1 {
		t.Fatalf("tree routing uses %d undirected edges, want %d", len(used), n-1)
	}
}

func TestTreeDistMatchesPathCost(t *testing.T) {
	g, tb := buildTables(t, 4, config.ArchWireless, config.RouteTree)
	// Route cost is symmetric for tree routing on an undirected graph: the
	// route d->s is the route s->d reversed.
	cost := pathCost(t, g, tb)
	n := g.SwitchCount()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if cost[s][d] != cost[d][s] {
				t.Fatalf("tree cost asymmetric: %d->%d %d vs %d",
					s, d, cost[s][d], cost[d][s])
			}
		}
	}
}

func TestShortestDistTriangle(t *testing.T) {
	// Shortest-path distances satisfy d(s,d) <= d(s,m) + d(m,d) for
	// transit-capable m.
	g, tb := buildTables(t, 4, config.ArchWireless, config.RouteShortest)
	cost := pathCost(t, g, tb)
	n := g.SwitchCount()
	check := func(s16, m16, d16 uint16) bool {
		s, m, d := int(s16)%n, int(m16)%n, int(d16)%n
		if g.Nodes[m].Kind == topo.KindMemLogic {
			return true
		}
		return cost[s][d] <= cost[s][m]+cost[m][d]
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNextHopDecreasesDistance(t *testing.T) {
	// Property: following Next strictly decreases the route cost (loop
	// freedom; pathCost itself fails on a loop).
	g, tb := buildTables(t, 8, config.ArchWireless, config.RouteShortest)
	cost := pathCost(t, g, tb)
	n := g.SwitchCount()
	check := func(s16, d16 uint16) bool {
		s, d := int(s16)%n, int(d16)%n
		if s == d {
			return true
		}
		nxt := tb.Next[s][d]
		return cost[nxt][d] < cost[s][d]
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicRebuild(t *testing.T) {
	_, a := buildTables(t, 4, config.ArchWireless, config.RouteShortest)
	_, b := buildTables(t, 4, config.ArchWireless, config.RouteShortest)
	for s := range a.Next {
		for d := range a.Next[s] {
			if a.Next[s][d] != b.Next[s][d] {
				t.Fatalf("rebuild diverged at next[%d][%d]", s, d)
			}
		}
	}
}

func TestTreeRootSeedDependence(t *testing.T) {
	cfg := config.MustXCYM(4, 4, config.ArchInterposer)
	cfg.Routing = config.RouteTree
	roots := map[sim.SwitchID]bool{}
	for seed := uint64(1); seed <= 8; seed++ {
		cfg.Seed = seed
		g, err := topo.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := buildSingle(g, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		roots[tb.Root] = true
	}
	if len(roots) < 2 {
		t.Fatal("tree root ignores the seed")
	}
}

func TestWirelessDirectWIToWI(t *testing.T) {
	// The headline claim: WI pairs communicate in ONE hop under shortest
	// routing.
	g, tb := buildTables(t, 4, config.ArchWireless, config.RouteShortest)
	for _, a := range g.WISwitches {
		for _, b := range g.WISwitches {
			if a == b {
				continue
			}
			if got := hops(tb, a, b); got != 1 {
				t.Fatalf("WI %d -> WI %d takes %d hops, want 1", a, b, got)
			}
		}
	}
}

func TestTreeForcesWITrafficThroughRoot(t *testing.T) {
	// The paper's literal tree routing defeats one-hop WI links for most
	// pairs — the motivation for RouteShortest (package doc, Table modes).
	g, tb := buildTables(t, 4, config.ArchWireless, config.RouteTree)
	direct := 0
	pairs := 0
	for _, a := range g.WISwitches {
		for _, b := range g.WISwitches {
			if a == b {
				continue
			}
			pairs++
			if hops(tb, a, b) == 1 {
				direct++
			}
		}
	}
	if direct == pairs {
		t.Fatal("tree routing kept every WI pair direct; expected root funneling")
	}
}

func TestSubstrateInterChipIsChipLevelTree(t *testing.T) {
	// Substrate shortest routing must never use more serial crossings than
	// the chip-level spanning tree path requires, and routes must be
	// consistent (suffix property): the tail of a route is the route of its
	// intermediate switches.
	g, tb := buildTables(t, 4, config.ArchSubstrate, config.RouteShortest)
	n := g.SwitchCount()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			p := tb.Path(sim.SwitchID(s), sim.SwitchID(d))
			for i := 1; i < len(p); i++ {
				if tb.Next[p[i-1]][d] != p[i] {
					t.Fatalf("route %d->%d not consistent at %d", s, d, p[i-1])
				}
			}
		}
	}
}

func TestPathUnreachableIsNil(t *testing.T) {
	tb := &Tables{Next: newTable(2, sim.NoSwitch)}
	tb.Next[0][0] = 0
	tb.Next[1][1] = 1
	if p := tb.Path(0, 1); p != nil {
		t.Fatalf("path to an unreachable switch = %v, want nil", p)
	}
}

// hops returns the hop count of the route from s to d, -1 when d is
// unreachable.
func hops(tb *Tables, s, d sim.SwitchID) int { return len(tb.Path(s, d)) - 1 }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestBuildWorkerCountInvariance: routing tables are byte-identical across
// worker counts — per-destination (and, for the substrate hierarchy,
// per-source) fills write disjoint table entries, so parallelism must not
// leak into the result. Covers a large generalized preset in every
// architecture and both routing modes.
func TestBuildWorkerCountInvariance(t *testing.T) {
	for _, arch := range []config.Architecture{
		config.ArchSubstrate, config.ArchInterposer, config.ArchWireless, config.ArchHybrid,
	} {
		for _, mode := range []config.RoutingMode{config.RouteShortest, config.RouteTree} {
			cfg := config.MustXCYM(16, 16, arch)
			cfg.Routing = mode
			g, err := topo.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := buildSingle(g, 1, true)
			if err != nil {
				t.Fatalf("%s/%s: sequential build: %v", arch, mode, err)
			}
			for _, workers := range []int{0, 2, 7} {
				tb, err := buildSingle(g, workers, true)
				if err != nil {
					t.Fatalf("%s/%s: %d-worker build: %v", arch, mode, workers, err)
				}
				if tb.Root != ref.Root {
					t.Fatalf("%s/%s: root differs across worker counts", arch, mode)
				}
				for s := range ref.Next {
					for d := range ref.Next[s] {
						if tb.Next[s][d] != ref.Next[s][d] {
							t.Fatalf("%s/%s: table entry (%d,%d) differs with %d workers",
								arch, mode, s, d, workers)
						}
					}
				}
			}
		}
	}
}

// TestLargePresetsDeadlockFree extends the CDG verification to the
// generalized 16-, 32- and 64-chip presets of every architecture, through
// the class tables and the union check the engine runs (the memoized walk
// must agree with the construction-time deadlock arguments at scale).
func TestLargePresetsDeadlockFree(t *testing.T) {
	if testing.Short() {
		t.Skip("large route builds")
	}
	for _, chips := range []int{16, 32, 64} {
		for _, arch := range []config.Architecture{
			config.ArchSubstrate, config.ArchInterposer, config.ArchWireless, config.ArchHybrid,
		} {
			g, ct := buildClassGraph(t, chips, arch)
			if err := CheckDeadlockFreeUnion(g, ct.Tables()...); err != nil {
				t.Fatalf("%dC/%s: %v", chips, arch, err)
			}
		}
	}
}

// benchGraph builds the 64-chip preset of arch for the construction
// benchmarks.
func benchGraph(b *testing.B, arch config.Architecture) *topo.Graph {
	b.Helper()
	g, err := topo.Build(config.MustXCYM(64, config.DefaultStacks(64), arch))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkBuildClasses64 times the class tables of the 64-chip presets
// (one worker, so the figure is the total work).
func BenchmarkBuildClasses64(b *testing.B) {
	for _, arch := range []config.Architecture{config.ArchWireless, config.ArchHybrid} {
		b.Run(string(arch), func(b *testing.B) {
			g := benchGraph(b, arch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := BuildClasses(g, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeadlockCheck64 times the union deadlock check of the 64-chip
// presets' class tables. The check splits its walk across the workers the
// tables were built with; they are built with one, so the figure is the
// total work.
func BenchmarkDeadlockCheck64(b *testing.B) {
	for _, arch := range []config.Architecture{config.ArchWireless, config.ArchHybrid} {
		b.Run(string(arch), func(b *testing.B) {
			g := benchGraph(b, arch)
			ct, err := BuildClasses(g, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := CheckDeadlockFreeUnion(g, ct.Tables()...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
