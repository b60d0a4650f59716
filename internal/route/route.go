package route

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"wimc/internal/config"
	"wimc/internal/exp/pool"
	"wimc/internal/sim"
	"wimc/internal/topo"
)

// Tables holds next-hop forwarding state at switch granularity.
type Tables struct {
	Mode config.RoutingMode
	// Next[s][d] is the next switch on the route from s to d; Next[d][d] = d.
	Next [][]sim.SwitchID
	// Root is the tree root in RouteTree mode, or sim.NoSwitch.
	Root sim.SwitchID
	// wireless[s] reports whether s hosts a WI of the wireless full graph
	// this table routes over; nil for a wired-only table.
	wireless []bool
	// workers bounds the pool used while the tables are built, and the
	// one CheckDeadlockFreeUnion splits its walk across: <= 0 means
	// runtime.GOMAXPROCS(0).
	workers int
}

// arc is one directed wired adjacency used by the router computation.
type arc struct {
	to     sim.SwitchID
	weight int32
	rank   int // tie-break priority: lower is preferred
}

// Tie-break ranks. Wireless hops rank after every wired one: they are
// never materialized as arcs (see routeGraph), and the next-hop scans
// consider them only once no wired arc qualifies.
const (
	rankHorizontal = iota
	rankVertical
	rankIO
)

// routeGraph is the adjacency one table is computed over: the wired arcs
// of every switch plus, when the wireless overlay joins, the WI set. The
// overlay is a full graph — every ordered WI pair is one hop at weight ww —
// but it is never materialized: shortest paths relax it through a virtual
// hub node (WI→hub at ww, hub→WI at 0), which yields the same distances as
// the W·(W−1) pair arcs with O(W) work per search.
type routeGraph struct {
	// adj[s] lists the wired arcs out of s in tie-break order: rank, then
	// target ID.
	adj [][]arc
	// transit[s] is false for memory logic dies: endpoints, not routers.
	// Paths may start or end there but never pass through (their wide-I/O
	// spurs would otherwise become mesh shortcuts).
	transit []bool
	// wis lists the WI host switches and isWI marks them; both are nil
	// without the wireless overlay.
	wis  []sim.SwitchID
	isWI []bool
	// ww is the routing weight of one wireless hop.
	ww int32
}

// buildSingle computes one forwarding table, fanning the per-destination
// fills across at most workers goroutines (<= 0 means
// runtime.GOMAXPROCS(0), 1 a sequential build); the table is the same at
// every worker count, since each destination's column is computed
// independently into disjoint entries. includeWireless selects whether the
// wireless full graph joins the adjacency: true gives class 0, false the
// wired-only class table of a hybrid.
func buildSingle(g *topo.Graph, workers int, includeWireless bool) (*Tables, error) {
	rg := newRouteGraph(g, includeWireless)
	t := &Tables{
		Mode:     g.Cfg.Routing,
		Root:     sim.NoSwitch,
		wireless: rg.isWI,
		workers:  workers,
	}
	var err error
	switch g.Cfg.Routing {
	case config.RouteShortest:
		if g.Cfg.Arch == config.ArchSubstrate {
			// Single serial links around the chip ring deadlock under
			// unrestricted minimal routing; use chip-level dimension order.
			err = t.buildSubstrateHier(g)
		} else {
			err = t.buildShortest(rg)
		}
	case config.RouteTree:
		err = t.buildTree(g, rg)
	default:
		err = fmt.Errorf("route: unknown routing mode %q", g.Cfg.Routing)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// IsWireless reports whether the hop from u to v crosses the wireless
// fabric: true for every ordered pair of distinct WI switches of a table
// that routes over the wireless full graph.
func (t *Tables) IsWireless(u, v sim.SwitchID) bool {
	return t.wireless != nil && u != v && t.wireless[u] && t.wireless[v]
}

// Path returns the switch sequence from s to d (inclusive).
func (t *Tables) Path(s, d sim.SwitchID) []sim.SwitchID {
	path := []sim.SwitchID{s}
	cur := s
	for cur != d {
		nxt := t.Next[cur][d]
		if nxt == sim.NoSwitch || nxt == cur {
			return nil
		}
		path = append(path, nxt)
		cur = nxt
		if len(path) > len(t.Next)+1 {
			return nil // defensive: would indicate a routing loop
		}
	}
	return path
}

// newRouteGraph collects the wired arcs of g in tie-break order, the
// transit mask and, when includeWireless, the WI set of the overlay.
func newRouteGraph(g *topo.Graph, includeWireless bool) *routeGraph {
	n := g.SwitchCount()
	adj := make([][]arc, n)
	for _, e := range g.Edges {
		var rank int
		switch e.Kind {
		case topo.EdgeMesh, topo.EdgeInterposer:
			if g.Nodes[e.A].GY == g.Nodes[e.B].GY {
				rank = rankHorizontal
			} else {
				rank = rankVertical
			}
		default:
			rank = rankIO
		}
		w := int32(e.Latency)
		if w < 1 {
			w = 1
		}
		adj[e.A] = append(adj[e.A], arc{to: e.B, weight: w, rank: rank})
		adj[e.B] = append(adj[e.B], arc{to: e.A, weight: w, rank: rank})
	}
	// Deterministic neighbor order: tie-break rank, then target ID.
	for s := range adj {
		as := adj[s]
		sort.Slice(as, func(i, j int) bool {
			if as[i].rank != as[j].rank {
				return as[i].rank < as[j].rank
			}
			return as[i].to < as[j].to
		})
	}
	rg := &routeGraph{adj: adj, transit: make([]bool, n)}
	for i, nd := range g.Nodes {
		rg.transit[i] = nd.Kind != topo.KindMemLogic
	}
	if includeWireless && g.HasWireless() {
		rg.wis = g.WISwitches
		rg.isWI = make([]bool, n)
		for _, w := range rg.wis {
			rg.isWI[w] = true
		}
		rg.ww = int32(max(g.Cfg.WirelessHopWeight, 1))
	}
	return rg
}

// destBlock is the number of destination columns one task fills. The
// tables are row-major, so a task writes each source row as one run of
// destBlock entries instead of one entry per row per destination.
const destBlock = 16

// spScratch is one worker's reusable shortest-path state: the distance
// arrays of one destination block (each one entry per switch, then the
// hub), their hub next hops, and the queue.
type spScratch struct {
	dist   [destBlock][]int32
	viaHub [destBlock]sim.SwitchID
	pq     radixHeap
}

// buildShortest fills the tables with per-source shortest paths: for every
// destination d a reverse Dijkstra yields dist(·, d); the next hop from s is
// the first neighbor (in tie-break order) on a shortest path. Destinations
// are independent — each fills only its own column of Next — so
// blocks of them fan out across the worker pool; the tables, and the error
// of a failed build (lowest destination, then lowest source), are
// identical for any worker count.
func (t *Tables) buildShortest(rg *routeGraph) error {
	n := len(rg.adj)
	t.Next = newTable(n, sim.NoSwitch)
	scratch := sync.Pool{New: func() any {
		sc := &spScratch{}
		for j := range sc.dist {
			sc.dist[j] = make([]int32, n+1)
		}
		return sc
	}}
	blocks := (n + destBlock - 1) / destBlock
	err := pool.ForEach(t.workers, blocks, func(b int) error {
		sc := scratch.Get().(*spScratch)
		defer scratch.Put(sc)
		d0, d1 := b*destBlock, min((b+1)*destBlock, n)
		for d := d0; d < d1; d++ {
			rg.dijkstra(sim.SwitchID(d), sc.dist[d-d0], &sc.pq)
			sc.viaHub[d-d0] = rg.hubNextHop(sc.dist[d-d0])
		}
		var errs [destBlock]error
		for s := 0; s < n; s++ {
			nextRow := t.Next[s]
			for d := d0; d < d1; d++ {
				dist := sc.dist[d-d0]
				if s == d {
					nextRow[d] = sim.SwitchID(d)
					continue
				}
				if errs[d-d0] != nil {
					continue
				}
				if dist[s] == unreachable {
					errs[d-d0] = fmt.Errorf("route: switch %d cannot reach switch %d", s, d)
					continue
				}
				next := sim.NoSwitch
				for _, a := range rg.adj[s] {
					if dist[a.to] != unreachable && dist[a.to]+a.weight == dist[s] {
						next = a.to
						break
					}
				}
				// No wired arc is on a shortest path, so s is a WI whose
				// distance came from the hub (see hubNextHop).
				if next == sim.NoSwitch {
					next = sc.viaHub[d-d0]
				}
				if next == sim.NoSwitch {
					errs[d-d0] = fmt.Errorf("route: no next hop from %d to %d", s, d)
					continue
				}
				nextRow[d] = next
			}
		}
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// buildTree fills the tables with single-tree routing: a shortest-path tree
// is grown from a seeded-random root and every route follows tree paths.
func (t *Tables) buildTree(g *topo.Graph, rg *routeGraph) error {
	n := g.SwitchCount()
	rng := sim.NewRand(g.Cfg.Seed).Derive("route-tree-root")
	// The root must be a transitable switch (not a memory leaf).
	var root sim.SwitchID
	for {
		root = sim.SwitchID(rng.Intn(n))
		if rg.transit[root] {
			break
		}
	}
	t.Root = root

	parent, _ := rg.spTree(root)
	for s := 0; s < n; s++ {
		if s != int(root) && parent[s] == sim.NoSwitch {
			return fmt.Errorf("route: tree mode: switch %d unreachable from root %d", s, root)
		}
	}

	// Ancestor test via Euler tour intervals.
	tin, tout := eulerTimes(parent, n, root)
	isAncestor := func(a, b sim.SwitchID) bool { // a ancestor-of-or-equal b
		return tin[a] <= tin[b] && tout[b] <= tout[a]
	}

	t.Next = newTable(n, sim.NoSwitch)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			ss, dd := sim.SwitchID(s), sim.SwitchID(d)
			if ss == dd {
				t.Next[s][d] = dd
				continue
			}
			if isAncestor(ss, dd) {
				// Descend: the next hop is d's ancestor chain child of s.
				c := dd
				for parent[c] != ss {
					c = parent[c]
				}
				t.Next[s][d] = c
			} else {
				t.Next[s][d] = parent[s]
			}
		}
	}
	return nil
}

const unreachable = int32(math.MaxInt32 / 4)

// dijkstra fills dist with the shortest distances from src over the wired
// arcs and the wireless overlay: entries 0..n-1 are the switches, entry n
// is the hub. Nodes with transit[i] == false are only expanded at the
// source (they are endpoints, never intermediate hops).
func (rg *routeGraph) dijkstra(src sim.SwitchID, dist []int32, pq *radixHeap) {
	n := len(rg.adj)
	hub := sim.SwitchID(n)
	for i := range dist {
		dist[i] = unreachable
	}
	dist[src] = 0
	pq.reset()
	pq.push(src, 0)
	for pq.len() > 0 {
		u, du := pq.pop()
		if du > dist[u] {
			continue
		}
		if u == hub {
			for _, w := range rg.wis {
				if du < dist[w] {
					dist[w] = du
					pq.push(w, du)
				}
			}
			continue
		}
		if u != src && !rg.transit[u] {
			continue
		}
		for _, a := range rg.adj[u] {
			nd := du + a.weight
			if nd < dist[a.to] {
				dist[a.to] = nd
				pq.push(a.to, nd)
			}
		}
		if rg.isWI != nil && rg.isWI[u] {
			if nd := du + rg.ww; nd < dist[hub] {
				dist[hub] = nd
				pq.push(hub, nd)
			}
		}
	}
}

// hubNextHop returns the next hop of every switch s that no wired arc
// leads onto a shortest path, or sim.NoSwitch when no WI was expanded.
//
// The tie-break scan ranks wireless arcs after wired ones, so it reaches
// them only when no wired arc of s lies on a shortest path. Wired edges
// are symmetric, so a final distance set through a wired arc u→s always
// has its reverse s→u on a shortest path; the scan therefore reaches the
// wireless arcs only for a WI s whose distance came from the hub alone,
// dist[s] = dist[hub] = M + ww with M the smallest distance of an expanded
// WI. Its wireless arc to b qualifies iff dist[b] == M, and b != s because
// ww >= 1. Arcs are scanned in target order, so the choice is the
// lowest-ID WI at distance M — the same for every such s.
func (rg *routeGraph) hubNextHop(dist []int32) sim.SwitchID {
	hubDist := dist[len(rg.adj)]
	if hubDist == unreachable {
		return sim.NoSwitch
	}
	best := sim.NoSwitch
	for _, w := range rg.wis {
		if dist[w] == hubDist-rg.ww && (best == sim.NoSwitch || w < best) {
			best = w
		}
	}
	return best
}

// spTree grows a shortest-path tree from root, returning parent pointers
// and root distances. Nodes pop in (distance, node) order, so among equal
// relaxations the first popped switch becomes the parent; non-transit
// nodes become leaves. The tree is grown once per build, so the wireless
// full graph is relaxed arc by arc here (O(W²) once).
func (rg *routeGraph) spTree(root sim.SwitchID) (parent []sim.SwitchID, dist []int32) {
	n := len(rg.adj)
	parent = make([]sim.SwitchID, n)
	dist = make([]int32, n)
	for i := range parent {
		parent[i] = sim.NoSwitch
		dist[i] = unreachable
	}
	dist[root] = 0
	pq := radixHeap{byNode: true}
	pq.push(root, 0)
	relax := func(u, v sim.SwitchID, w int32) {
		if nd := dist[u] + w; nd < dist[v] {
			dist[v] = nd
			parent[v] = u
			pq.push(v, nd)
		}
	}
	for pq.len() > 0 {
		u, du := pq.pop()
		if du > dist[u] {
			continue
		}
		if u != root && !rg.transit[u] {
			continue
		}
		for _, a := range rg.adj[u] {
			relax(u, a.to, a.weight)
		}
		if rg.isWI != nil && rg.isWI[u] {
			for _, w := range rg.wis {
				if w != u {
					relax(u, w, rg.ww)
				}
			}
		}
	}
	return parent, dist
}

// heapItem is one queued (node, distance) pair.
type heapItem struct {
	node sim.SwitchID
	dist int32
}

// radixHeap is a monotone priority queue: every pushed key must be at
// least the last popped key, which non-negative arc weights guarantee.
// Bucket 0 holds the items whose key equals the last popped key; bucket
// i > 0 holds those whose highest bit differing from it is bit i−1. A pop
// from an empty bucket 0 finds the lowest non-empty bucket, takes its
// minimum as the new last key and redistributes it downward; each item
// moves to a strictly lower bucket every time it is redistributed, so an
// operation costs O(1) amortized plus at most 32 bucket moves per item.
// 33 buckets cover every int32 key, whatever the arc weights: nothing is
// sized by the largest weight.
type radixHeap struct {
	last    int32
	size    int
	buckets [33][]heapItem
	// byNode pops equal keys in ascending node order. It requires every
	// arc weight to be positive: a refilled bucket 0 then receives no
	// further item until it is drained.
	byNode bool
}

// reset empties the heap, keeping its bucket storage.
func (h *radixHeap) reset() {
	for i := range h.buckets {
		h.buckets[i] = h.buckets[i][:0]
	}
	h.last, h.size = 0, 0
}

func (h *radixHeap) len() int { return h.size }

func (h *radixHeap) push(node sim.SwitchID, dist int32) {
	b := bits.Len32(uint32(dist ^ h.last))
	h.buckets[b] = append(h.buckets[b], heapItem{node: node, dist: dist})
	h.size++
}

func (h *radixHeap) pop() (sim.SwitchID, int32) {
	if len(h.buckets[0]) == 0 {
		i := 1
		for len(h.buckets[i]) == 0 {
			i++
		}
		from := h.buckets[i]
		h.last = from[0].dist
		for _, it := range from[1:] {
			h.last = min(h.last, it.dist)
		}
		for _, it := range from {
			b := bits.Len32(uint32(it.dist ^ h.last))
			h.buckets[b] = append(h.buckets[b], it)
		}
		h.buckets[i] = from[:0]
		if h.byNode {
			// Descending, so popping from the tail yields ascending nodes.
			slices.SortFunc(h.buckets[0], func(a, b heapItem) int { return cmp.Compare(b.node, a.node) })
		}
	}
	b0 := h.buckets[0]
	it := b0[len(b0)-1]
	h.buckets[0] = b0[:len(b0)-1]
	h.size--
	return it.node, it.dist
}

// eulerTimes computes entry/exit times of the tree rooted at root.
func eulerTimes(parent []sim.SwitchID, n int, root sim.SwitchID) (tin, tout []int32) {
	children := make([][]sim.SwitchID, n)
	for c, p := range parent {
		if p != sim.NoSwitch {
			children[p] = append(children[p], sim.SwitchID(c))
		}
	}
	tin = make([]int32, n)
	tout = make([]int32, n)
	var clock int32
	// Iterative DFS to avoid recursion depth concerns.
	type frame struct {
		node sim.SwitchID
		next int
	}
	stack := []frame{{node: root}}
	tin[root] = clock
	clock++
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(children[f.node]) {
			c := children[f.node][f.next]
			f.next++
			tin[c] = clock
			clock++
			stack = append(stack, frame{node: c})
			continue
		}
		tout[f.node] = clock
		clock++
		stack = stack[:len(stack)-1]
	}
	return tin, tout
}

func newTable(n int, fill sim.SwitchID) [][]sim.SwitchID {
	t := make([][]sim.SwitchID, n)
	flat := make([]sim.SwitchID, n*n)
	for i := range flat {
		flat[i] = fill
	}
	for i := range t {
		t[i] = flat[i*n : (i+1)*n]
	}
	return t
}

// tileWidth is the number of destination columns one column tile holds.
const tileWidth = 64

// columnTile copies columns [d0, d1) of the square table next into tile,
// column d as the contiguous run tile[(d-d0)*n : (d-d0+1)*n], so a walk
// toward d reads its next hops in switch order. Each row is read as one
// run of d1-d0 entries, where reading a column directly would stride a
// whole row per entry. tile must hold (d1-d0)*n entries.
func columnTile(next [][]sim.SwitchID, d0, d1 int, tile []sim.SwitchID) {
	n := len(next)
	for s, row := range next {
		for j, v := range row[d0:d1] {
			tile[j*n+s] = v
		}
	}
}
