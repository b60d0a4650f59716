package route

import (
	"fmt"
	"runtime"
	"slices"

	"wimc/internal/exp/pool"
	"wimc/internal/sim"
	"wimc/internal/topo"
)

// CheckDeadlockFreeUnion verifies that the routing functions of tables
// cannot deadlock under wormhole switching by building the channel
// dependency graph (CDG) and checking it for cycles (Dally & Seitz). A
// channel is a directed switch-to-switch hop; channel (u→v) depends on
// (v→w) whenever some route traverses u→v→w consecutively. Acyclic CDG ⇒
// deadlock-free routing.
//
// Several tables share one physical network in the multi-class case, where
// flits routed by different class tables occupy the same channels
// concurrently and a hold-and-wait chain may cross tables. Every table's
// routes are walked into ONE channel dependency graph and the union must
// be acyclic; per-table acyclicity alone would not rule out a cycle
// assembled from dependencies of different classes. A single table is the
// one-class case.
//
// On wireless topologies the check models the simulator's VC phase classes:
// virtual channels are partitioned between pre-wireless and post-wireless
// travel, so a mesh hop is a different channel before and after the
// packet's wireless hop, and wireless hops form their own class. This
// layering is what makes wireless shortcut routing safe. A hop between two
// WI switches that a wired edge also joins travels that edge (the engine
// forwards onto the wired port first), so it is a wired hop and does not
// change the packet's phase.
//
// All switch pairs are considered as source/destination, which over-covers
// the actual endpoint-attached switches (conservative). Every first hop of
// every pair is therefore checked to make progress over a link, which is
// what lets a switch route without validating its table rows.
//
// The walk memoizes per (table, destination) epoch: routing is memoryless,
// so the channel sequence from an intermediate state (switch, wireless
// phase) toward d is the same whichever source reached it, and an
// already-visited state means its whole suffix is already in the
// dependency graph. One walk therefore stops at the first visited state,
// recording only the dependency into it through the channel stored for
// that state, and a source whose own state is visited is not walked at
// all. That bounds the work per destination by the state count — O(n)
// rather than O(n × path length).
//
// The epochs are split into contiguous chunks, one per worker of the pool
// the first table was built with. Each chunk walks its own dependency
// graph, and the chunks merge in epoch order, so every channel's
// successors keep the order of their first insertion by a serial walk: the
// cycle search, the cycle it reports and every error text are the same at
// every worker count.
func CheckDeadlockFreeUnion(g *topo.Graph, tables ...*Tables) error {
	d, err := buildCDG(g, tables)
	if err != nil {
		return err
	}
	return d.findCycle()
}

// cdg is a channel dependency graph over the channels of one linkTable.
// Channel ID: link*3 + class; class 0 = pre-wireless VC class,
// 1 = post-wireless VC class, 2 = wireless medium. Links are numbered in
// (u, v) order, so ascending channel IDs are ascending (u, v, class)
// triples.
//
// Each channel's successors form a list in first-insertion order, threaded
// through depTo/depNext (-1 ends a list). Channel IDs carry no
// destination, so the same (prev, next) channel pair recurs across epochs
// and across class tables; a per-channel successor bitset keeps the CDG
// free of parallel edges. The successors of a channel into v are channels
// out of v, so its bitset spans v's links × 3 classes and is allocated on
// the first dependency.
type cdg struct {
	lt       *linkTable
	used     []bool
	depHead  []int32
	depTail  []int32
	succOff  []int32
	depTo    []int32
	depNext  []int32
	succBits []uint64
}

func newCDG(lt *linkTable) *cdg {
	numChans := 3 * len(lt.ends)
	d := &cdg{
		lt:      lt,
		used:    make([]bool, numChans),
		depHead: make([]int32, numChans),
		depTail: make([]int32, numChans),
		succOff: make([]int32, numChans),
	}
	for c := range d.depHead {
		d.depHead[c], d.depTail[c], d.succOff[c] = -1, -1, -1
	}
	return d
}

// add records that channel prev depends on channel c, unless it already
// does; prev < 0 (a walk's first hop) records nothing.
func (d *cdg) add(prev, c int32) {
	if prev < 0 {
		return
	}
	lt := d.lt
	v := lt.ends[prev/3][1]
	if d.succOff[prev] < 0 {
		d.succOff[prev] = int32(len(d.succBits))
		words := (3*int(lt.first[v+1]-lt.first[v]) + 63) / 64
		d.succBits = slices.Grow(d.succBits, words)[:len(d.succBits)+words]
		clear(d.succBits[d.succOff[prev]:])
	}
	bit := (c/3-lt.first[v])*3 + c%3
	word, mask := &d.succBits[d.succOff[prev]+bit/64], uint64(1)<<(bit%64)
	if *word&mask != 0 {
		return
	}
	*word |= mask
	e := int32(len(d.depTo))
	d.depTo = append(d.depTo, c)
	d.depNext = append(d.depNext, -1)
	if d.depTail[prev] < 0 {
		d.depHead[prev] = e
	} else {
		d.depNext[d.depTail[prev]] = e
	}
	d.depTail[prev] = e
}

// merge appends the dependencies of o, a graph walked over later epochs,
// to d: each channel's successors in o's order, after d's own.
func (d *cdg) merge(o *cdg) {
	for c, h := range o.depHead {
		d.used[c] = d.used[c] || o.used[c]
		for e := h; e >= 0; e = o.depNext[e] {
			d.add(int32(c), o.depTo[e])
		}
	}
}

// buildCDG walks every route of tables into one dependency graph, one
// chunk of (table, destination) epochs per worker (see
// CheckDeadlockFreeUnion). When chunks fail, the lowest chunk's first
// error is the error a serial walk would have met first.
func buildCDG(g *topo.Graph, tables []*Tables) (*cdg, error) {
	lt := newLinkTable(g)
	n := g.SwitchCount()
	epochs := len(tables) * n
	workers := 1
	if len(tables) > 0 {
		workers = tables[0].workers
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunks := max(1, min(workers, epochs))
	parts := make([]*cdg, chunks)
	_, err := pool.ForEach(chunks, chunks, func(k int) error {
		parts[k] = newCDG(lt)
		return parts[k].walk(tables, n, k*epochs/chunks, (k+1)*epochs/chunks)
	})
	if err != nil {
		return nil, err
	}
	for _, o := range parts[1:] {
		parts[0].merge(o)
	}
	return parts[0], nil
}

// walk adds the routes of epochs [lo, hi) to d. Epoch e walks table
// tables[e/n] toward destination e%n from every source. The columns being
// walked are read in tiles of tileWidth destinations.
func (d *cdg) walk(tables []*Tables, n, lo, hi int) error {
	lt := d.lt
	// State key: switch*2 + phase. visited[st] is the stamp (index + 1)
	// of the epoch whose walks have recorded st's whole suffix, and
	// chanOf[st] the channel st's hop occupies there. walkStamp flags
	// states of the in-progress walk so a routing loop is still detected
	// (a visited-state break must mean "suffix reaches d").
	visited := make([]int32, 2*n)
	chanOf := make([]int32, 2*n)
	walkStamp := make([]int32, 2*n)
	var walkSeq int32
	var chain []int32
	tile := make([]sim.SwitchID, tileWidth*n)

	for e := lo; e < hi; {
		t, d0 := tables[e/n], e%n
		d1 := min(d0+tileWidth, n, d0+hi-e)
		columnTile(t.Next, d0, d1, tile)
		for dst := d0; dst < d1; dst++ {
			epoch := int32(e + dst - d0 + 1)
			toward := tile[(dst-d0)*n : (dst-d0+1)*n]
			for s := 0; s < n; s++ {
				if s == dst || visited[2*s] == epoch {
					continue // a source on a walked suffix adds nothing
				}
				walkSeq++
				chain = chain[:0]
				prevChan := int32(-1)
				cur := sim.SwitchID(s)
				phase := int32(0)
				for cur != sim.SwitchID(dst) {
					st := int32(cur)*2 + phase
					if visited[st] == epoch {
						// Suffix already walked; only the entry dependency
						// is new.
						d.add(prevChan, chanOf[st])
						break
					}
					nxt := toward[cur]
					if nxt == sim.NoSwitch || nxt == cur {
						return fmt.Errorf("route: no progress from %d toward %d", cur, dst)
					}
					c, wl, ok := lt.channel(t, cur, nxt, phase)
					if !ok {
						return fmt.Errorf("route: hop %d->%d toward %d is not a link", cur, nxt, dst)
					}
					d.add(prevChan, c)
					if walkStamp[st] == walkSeq {
						return fmt.Errorf("route: routing loop from %d to %d", s, dst)
					}
					walkStamp[st] = walkSeq
					chanOf[st] = c
					chain = append(chain, st)
					d.used[c] = true
					if wl {
						phase = 1
					}
					prevChan = c
					cur = nxt
				}
				// The walk reached dst (or a state that does): its states'
				// suffixes are now fully recorded.
				for _, st := range chain {
					visited[st] = epoch
				}
			}
		}
		e += d1 - d0
	}
	return nil
}

// findCycle runs an iterative DFS over the graph, starting from the used
// channels in ascending order and following each channel's successors in
// insertion order: with a cycle present, which cycle the DFS trips over
// first — and therefore the error text — depends on traversal order, so
// the order is fixed.
func (d *cdg) findCycle() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, len(d.used))
	describe := func(c int32) string {
		uv := d.lt.ends[c/3]
		return fmt.Sprintf("%d->%d (class %d)", uv[0], uv[1], c%3)
	}
	type frame struct {
		c    int32
		next int32 // next dependency edge to follow, -1 when done
	}
	var stack []frame
	for start := range d.used {
		if !d.used[start] || color[start] != white {
			continue
		}
		stack = append(stack[:0], frame{c: int32(start), next: d.depHead[start]})
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next >= 0 {
				nc := d.depTo[f.next]
				f.next = d.depNext[f.next]
				switch color[nc] {
				case gray:
					return fmt.Errorf("route: channel dependency cycle through hop %s", describe(nc))
				case white:
					color[nc] = gray
					stack = append(stack, frame{c: nc, next: d.depHead[nc]})
				}
				continue
			}
			color[f.c] = black
			stack = stack[:len(stack)-1]
		}
	}
	return nil
}

// linkTable numbers the directed links a deadlock walk can travel: every
// wired edge in both directions plus, on a wireless package, every ordered
// pair of distinct WI switches. Links are numbered in (u, v) order, each
// pair once, so the links out of u are the contiguous range
// first[u]..first[u+1]-1.
type linkTable struct {
	ends  [][2]sim.SwitchID // ends[l] = (u, v)
	first []int32
	// Wired out-links of u: wiredTo/wiredLink[wiredFirst[u]:wiredFirst[u+1]]
	// (at most a handful per switch, scanned linearly).
	wiredFirst []int32
	wiredTo    []sim.SwitchID
	wiredLink  []int32
	// wiLink[a*numWI+b] is the link from the WI indexed a to the WI
	// indexed b (topo.Node.WI numbering); wiOf maps a switch to its WI
	// index, -1 for none.
	wiLink []int32
	wiOf   []int32
	numWI  int
}

func newLinkTable(g *topo.Graph) *linkTable {
	n := g.SwitchCount()
	numWI := len(g.WISwitches)
	wired := make([][]sim.SwitchID, n)
	for _, e := range g.Edges {
		wired[e.A] = append(wired[e.A], e.B)
		wired[e.B] = append(wired[e.B], e.A)
	}
	lt := &linkTable{
		first:      make([]int32, n+1),
		wiredFirst: make([]int32, n+1),
		wiLink:     make([]int32, numWI*numWI),
		wiOf:       make([]int32, n),
		numWI:      numWI,
	}
	for s, nd := range g.Nodes {
		lt.wiOf[s] = int32(nd.WI)
	}
	var nbrs []sim.SwitchID
	for u := 0; u < n; u++ {
		su := sim.SwitchID(u)
		lt.first[u] = int32(len(lt.ends))
		lt.wiredFirst[u] = int32(len(lt.wiredTo))
		ws := wired[u]
		slices.Sort(ws)
		nbrs = append(nbrs[:0], ws...)
		if lt.wiOf[u] >= 0 {
			for _, w := range g.WISwitches {
				if w != su {
					nbrs = append(nbrs, w)
				}
			}
		}
		slices.Sort(nbrs)
		for _, v := range slices.Compact(nbrs) {
			l := int32(len(lt.ends))
			lt.ends = append(lt.ends, [2]sim.SwitchID{su, v})
			if _, ok := slices.BinarySearch(ws, v); ok {
				lt.wiredTo = append(lt.wiredTo, v)
				lt.wiredLink = append(lt.wiredLink, l)
			}
			if lt.wiOf[u] >= 0 && lt.wiOf[v] >= 0 {
				lt.wiLink[int(lt.wiOf[u])*numWI+int(lt.wiOf[v])] = l
			}
		}
	}
	lt.first[n] = int32(len(lt.ends))
	lt.wiredFirst[n] = int32(len(lt.wiredTo))
	return lt
}

// channel returns the channel table t's hop u→v occupies for a packet in
// wireless phase phase, and whether the hop crosses the wireless medium. A
// wired edge joining u and v carries the hop whenever one exists (the
// engine forwards onto the wired port first), so only a wireless pair of t
// with no such edge is a wireless hop. ok is false when no link joins u to
// v.
func (lt *linkTable) channel(t *Tables, u, v sim.SwitchID, phase int32) (c int32, wireless, ok bool) {
	for i := lt.wiredFirst[u]; i < lt.wiredFirst[u+1]; i++ {
		if lt.wiredTo[i] == v {
			return lt.wiredLink[i]*3 + phase, false, true
		}
	}
	if t.IsWireless(u, v) {
		return lt.wiLink[int(lt.wiOf[u])*lt.numWI+int(lt.wiOf[v])]*3 + 2, true, true
	}
	return -1, false, false
}
