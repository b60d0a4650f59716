package route

import (
	"testing"

	"wimc/internal/sim"
	"wimc/internal/topo"
)

// pathCost returns the routed path cost of every pair of tb:
// cost[s][d] is the sum of hop weights along the Next walk from s to d.
// A hop costs the cheapest channel joining its two switches: a wired edge
// at its latency (at least 1), or wireless_hop_weight when tb.IsWireless.
// These are the routing weights the builders minimize, so on a shortest
// table the cost is the shortest distance, and on a tree table the tree
// distance. Each destination's column is filled by one memoized walk. A
// route loop or a hop no channel carries fails the test.
func pathCost(t testing.TB, g *topo.Graph, tb *Tables) [][]int32 {
	t.Helper()
	type link struct {
		to     sim.SwitchID
		weight int32
	}
	n := len(tb.Next)
	links := make([][]link, n)
	for _, e := range g.Edges {
		w := int32(max(e.Latency, 1))
		links[e.A] = append(links[e.A], link{e.B, w})
		links[e.B] = append(links[e.B], link{e.A, w})
	}
	ww := int32(max(g.Cfg.WirelessHopWeight, 1))
	hop := func(u, v sim.SwitchID) int32 {
		best := int32(-1)
		if tb.IsWireless(u, v) {
			best = ww
		}
		for _, l := range links[u] {
			if l.to == v && (best < 0 || l.weight < best) {
				best = l.weight
			}
		}
		return best
	}

	cost := newDist(n)
	done := make([]bool, n)
	var chain []sim.SwitchID
	for d := 0; d < n; d++ {
		clear(done)
		done[d] = true
		for s := 0; s < n; s++ {
			chain = chain[:0]
			for cur := sim.SwitchID(s); !done[cur]; cur = tb.Next[cur][d] {
				if len(chain) > n || tb.Next[cur][d] == sim.NoSwitch {
					t.Fatalf("pathCost: no route from %d to %d", s, d)
				}
				chain = append(chain, cur)
			}
			for i := len(chain) - 1; i >= 0; i-- {
				u := chain[i]
				v := tb.Next[u][d]
				w := hop(u, v)
				if w < 0 {
					t.Fatalf("pathCost: hop %d->%d toward %d joins no channel", u, v, d)
				}
				cost[u][d] = w + cost[v][d]
				done[u] = true
			}
		}
	}
	return cost
}

// newDist allocates an n×n cost matrix backed by one slice.
func newDist(n int) [][]int32 {
	t := make([][]int32, n)
	flat := make([]int32, n*n)
	for i := range t {
		t[i] = flat[i*n : (i+1)*n]
	}
	return t
}
