package route

import (
	"container/heap"
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"wimc/internal/config"
	"wimc/internal/sim"
	"wimc/internal/topo"
)

// The oracle is the original shortest-path construction, kept only here:
// container/heap Dijkstra over an adjacency that materializes all
// W·(W−1) wireless arcs, with the same tie-break scan for next hops.

const oracleRankWireless = rankIO + 1

// oracleAdjacency builds the wired arcs plus, when includeWireless, one
// arc per ordered WI pair, in tie-break order.
func oracleAdjacency(g *topo.Graph, includeWireless bool) [][]arc {
	adj := newRouteGraph(g, false).adj
	if includeWireless {
		ww := int32(max(g.Cfg.WirelessHopWeight, 1))
		for i, a := range g.WISwitches {
			for j, b := range g.WISwitches {
				if i != j {
					adj[a] = append(adj[a], arc{to: b, weight: ww, rank: oracleRankWireless})
				}
			}
		}
	}
	for s := range adj {
		as := adj[s]
		sort.Slice(as, func(i, j int) bool {
			if as[i].rank != as[j].rank {
				return as[i].rank < as[j].rank
			}
			return as[i].to < as[j].to
		})
	}
	return adj
}

type oracleItem struct {
	node sim.SwitchID
	dist int32
}

type oracleHeap []oracleItem

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].node < h[j].node
}
func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)   { *h = append(*h, x.(oracleItem)) }
func (h *oracleHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// oracleSearch grows shortest paths from src, popping in (dist, node)
// order; it returns distances and the parent that first reached each node.
func oracleSearch(adj [][]arc, src sim.SwitchID, transit []bool) (dist []int32, parent []sim.SwitchID) {
	n := len(adj)
	dist = make([]int32, n)
	parent = make([]sim.SwitchID, n)
	for i := range dist {
		dist[i] = unreachable
		parent[i] = sim.NoSwitch
	}
	dist[src] = 0
	pq := &oracleHeap{{node: src, dist: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(oracleItem)
		if it.dist > dist[it.node] {
			continue
		}
		if it.node != src && !transit[it.node] {
			continue
		}
		for _, a := range adj[it.node] {
			if nd := it.dist + a.weight; nd < dist[a.to] {
				dist[a.to] = nd
				parent[a.to] = it.node
				heap.Push(pq, oracleItem{node: a.to, dist: nd})
			}
		}
	}
	return dist, parent
}

// oracleShortest is the original buildShortest: one Dijkstra per
// destination, next hop = first arc in tie-break order on a shortest path.
func oracleShortest(t *testing.T, adj [][]arc, transit []bool) (next [][]sim.SwitchID, dist [][]int32) {
	t.Helper()
	n := len(adj)
	next = newTable(n, sim.NoSwitch)
	dist = newDist(n)
	for d := 0; d < n; d++ {
		col, _ := oracleSearch(adj, sim.SwitchID(d), transit)
		for s := 0; s < n; s++ {
			dist[s][d] = col[s]
			if s == d {
				next[s][d] = sim.SwitchID(d)
				continue
			}
			if col[s] == unreachable {
				t.Fatalf("oracle: switch %d cannot reach switch %d", s, d)
			}
			for _, a := range adj[s] {
				if col[a.to] != unreachable && col[a.to]+a.weight == col[s] {
					next[s][d] = a.to
					break
				}
			}
		}
	}
	return next, dist
}

// oracleConfigs returns shortest-path configurations at routing weights
// the table digests do not reach.
func oracleConfigs() []config.Config {
	type tweak struct {
		name string
		set  func(*config.Config)
	}
	tweaks := []tweak{
		{"ww1", func(c *config.Config) { c.WirelessHopWeight = 1 }},
		{"ww2", func(c *config.Config) { c.WirelessHopWeight = 2 }},
		{"ww7", func(c *config.Config) { c.WirelessHopWeight = 7 }},
		{"wired-latencies", func(c *config.Config) {
			c.MeshLatency, c.InterposerLatency, c.SerialLatency = 3, 5, 1
		}},
		{"wired-latencies-ww2", func(c *config.Config) {
			c.MeshLatency, c.InterposerLatency, c.SerialLatency = 3, 5, 1
			c.WirelessHopWeight = 2
		}},
	}
	var cfgs []config.Config
	for _, chips := range []int{4, 8} {
		for _, arch := range []config.Architecture{config.ArchInterposer, config.ArchWireless, config.ArchHybrid} {
			for _, tw := range tweaks {
				cfg := config.MustXCYM(chips, config.DefaultStacks(chips), arch)
				tw.set(&cfg)
				cfg.Name = tw.name
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs
}

// checkAgainstOracle compares every class table of cfg (and, under tree
// routing, the shortest-path tree) with the oracle construction.
func checkAgainstOracle(t *testing.T, cfg config.Config) {
	t.Helper()
	name := fmt.Sprintf("%s/%s/%s", presetName(cfg), cfg.Name, cfg.Routing)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	g, err := topo.Build(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ct, err := BuildClasses(g, 0)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	transit := newRouteGraph(g, false).transit
	if cfg.Routing == config.RouteTree {
		root := ct.Primary().Root
		parent, dist := newRouteGraph(g, true).spTree(root)
		wantDist, wantParent := oracleSearch(oracleAdjacency(g, true), root, transit)
		if !slices.Equal(dist, wantDist) || !slices.Equal(parent, wantParent) {
			t.Fatalf("%s: shortest-path tree differs from the oracle", name)
		}
		return
	}
	for c, tb := range ct.Classes {
		if tb == nil {
			continue
		}
		next, dist := oracleShortest(t, oracleAdjacency(g, RouteClass(c) == ClassWirelessPreferred), transit)
		for s := range next {
			if !slices.Equal(tb.Next[s], next[s]) || !slices.Equal(tb.Dist[s], dist[s]) {
				t.Fatalf("%s class %d: row %d differs from the oracle", name, c, s)
			}
		}
	}
}

// TestShortestPathsMatchOracle: the radix-heap, hub-relaxed construction
// reproduces the original full-graph Dijkstra entry for entry at routing
// weights the digests do not pin.
func TestShortestPathsMatchOracle(t *testing.T) {
	for _, cfg := range oracleConfigs() {
		checkAgainstOracle(t, cfg)
	}
}

// TestShortestPathTreeMatchesOracle: tree routing depends on the pop order
// of equal distances, so the tree itself must match the oracle's.
func TestShortestPathTreeMatchesOracle(t *testing.T) {
	for _, cfg := range oracleConfigs() {
		cfg.Routing = config.RouteTree
		checkAgainstOracle(t, cfg)
	}
}

// TestHugeLatencyMatchesOracle: Validate bounds no latency, and the radix
// heap must not size anything by the largest weight — a 65,536-cycle mesh
// hop builds as fast as a 1-cycle one.
func TestHugeLatencyMatchesOracle(t *testing.T) {
	for _, mode := range []config.RoutingMode{config.RouteShortest, config.RouteTree} {
		cfg := config.MustXCYM(4, 4, config.ArchWireless)
		cfg.MeshLatency = 65536
		cfg.Routing = mode
		cfg.Name = "mesh65536"
		checkAgainstOracle(t, cfg)

		g, err := topo.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, err = BuildClasses(g, 1); err != nil {
			t.Fatal(err)
		}
		if el := time.Since(start); el > 100*time.Millisecond {
			t.Fatalf("%s: 4C build with a 65,536-cycle mesh took %v", mode, el)
		}
	}
}
