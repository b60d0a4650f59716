package route

import (
	"fmt"
	"slices"

	"wimc/internal/sim"
	"wimc/internal/topo"
)

// CheckDeadlockFree verifies that the routing function cannot deadlock under
// wormhole switching by building the channel dependency graph (CDG) and
// checking it for cycles (Dally & Seitz). A channel is a directed
// switch-to-switch hop; channel (u→v) depends on (v→w) whenever some route
// traverses u→v→w consecutively. Acyclic CDG ⇒ deadlock-free routing.
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
// the actual endpoint-attached switches (conservative).
//
// The walk memoizes per destination: routing is memoryless, so the channel
// sequence from an intermediate state (switch, wireless phase) toward d is
// the same whichever source reached it, and an already-visited state means
// its whole suffix is already in the dependency graph. One walk therefore
// stops at the first visited state (recording only the dependency into it),
// which bounds the total work per destination by the state count — O(n)
// rather than O(n × path length) — and keeps the check affordable at
// 64-chip scale.
func CheckDeadlockFree(g *topo.Graph, t *Tables) error {
	return CheckDeadlockFreeUnion(g, t)
}

// CheckDeadlockFreeUnion verifies deadlock freedom over the union of
// several routing functions sharing one physical network — the multi-class
// case, where flits routed by different class tables occupy the same
// channels concurrently and a hold-and-wait chain may cross tables. Every
// table's routes are walked into ONE channel dependency graph and the
// union must be acyclic; per-table acyclicity alone would not rule out a
// cycle assembled from dependencies of different classes.
func CheckDeadlockFreeUnion(g *topo.Graph, tables ...*Tables) error {
	n := g.SwitchCount()
	lt := newLinkTable(g)
	// Channel ID: link*3 + class; class 0 = pre-wireless VC class,
	// 1 = post-wireless VC class, 2 = wireless medium. Links are numbered
	// in (u, v) order, so ascending channel IDs are ascending (u, v, class)
	// triples.
	numChans := 3 * len(lt.ends)
	used := make([]bool, numChans)

	// deps: each channel's successors in first-insertion order, as linked
	// lists threaded through depTo/depNext (-1 ends a list). Channel IDs
	// carry no destination, so the same (prev, next) channel pair recurs
	// across destination epochs and across class tables; a per-channel
	// successor bitset keeps the CDG free of parallel edges. The
	// successors of a channel into v are channels out of v, so its bitset
	// spans v's links × 3 classes and is allocated on the first dependency.
	depHead := make([]int32, numChans)
	depTail := make([]int32, numChans)
	succOff := make([]int32, numChans)
	for c := range depHead {
		depHead[c], depTail[c], succOff[c] = -1, -1, -1
	}
	var depTo, depNext []int32
	var succBits []uint64
	addDep := func(prev, c int32) {
		if prev < 0 {
			return
		}
		v := lt.ends[prev/3][1]
		if succOff[prev] < 0 {
			succOff[prev] = int32(len(succBits))
			words := (3*int(lt.first[v+1]-lt.first[v]) + 63) / 64
			succBits = slices.Grow(succBits, words)[:len(succBits)+words]
			clear(succBits[succOff[prev]:])
		}
		bit := (c/3-lt.first[v])*3 + c%3
		word, mask := &succBits[succOff[prev]+bit/64], uint64(1)<<(bit%64)
		if *word&mask != 0 {
			return
		}
		*word |= mask
		e := int32(len(depTo))
		depTo = append(depTo, c)
		depNext = append(depNext, -1)
		if depTail[prev] < 0 {
			depHead[prev] = e
		} else {
			depNext[depTail[prev]] = e
		}
		depTail[prev] = e
	}

	// State key: switch*2 + phase, valid for the current destination epoch
	// of the current table. walkStamp flags states of the in-progress walk
	// so a routing loop is still detected (a visited-state break must mean
	// "suffix reaches d").
	visited := make([]int32, 2*n)
	walkStamp := make([]int32, 2*n)
	var walkSeq int32
	var chain []int32

	for ti, t := range tables {
		// The walks toward d read column d of Next; transposed, that column
		// is one contiguous row.
		toward := transpose(t.Next)
		for d := 0; d < n; d++ {
			// Epochs must not collide across tables: each table's walk
			// memoizes its own suffixes only.
			epoch := int32(ti*n + d + 1)
			nextToward := toward[d]
			for s := 0; s < n; s++ {
				if s == d {
					continue
				}
				walkSeq++
				chain = chain[:0]
				prevChan := int32(-1)
				cur := sim.SwitchID(s)
				phase := int32(0)
				for cur != sim.SwitchID(d) {
					nxt := nextToward[cur]
					if nxt == sim.NoSwitch || nxt == cur {
						return fmt.Errorf("route: no progress from %d toward %d", cur, d)
					}
					c, wl, ok := lt.channel(t, cur, nxt, phase)
					if !ok {
						return fmt.Errorf("route: hop %d->%d toward %d is not a link", cur, nxt, d)
					}
					addDep(prevChan, c)
					st := int(cur)*2 + int(phase)
					if visited[st] == epoch {
						break // suffix already walked; only the entry dependency was new
					}
					if walkStamp[st] == walkSeq {
						return fmt.Errorf("route: routing loop from %d to %d", s, d)
					}
					walkStamp[st] = walkSeq
					chain = append(chain, int32(st))
					used[c] = true
					if wl {
						phase = 1
					}
					prevChan = c
					cur = nxt
				}
				// The walk reached d (or a state that does): its states'
				// suffixes are now fully recorded.
				for _, st := range chain {
					visited[st] = epoch
				}
			}
		}
	}

	// Iterative DFS cycle detection over the CDG, starting from the used
	// channels in ascending order: with a cycle present, which cycle the
	// DFS trips over first — and therefore the error text — depends on
	// traversal order, so the order is fixed.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, numChans)
	describe := func(c int32) string {
		uv := lt.ends[c/3]
		return fmt.Sprintf("%d->%d (class %d)", uv[0], uv[1], c%3)
	}
	type frame struct {
		c    int32
		next int32 // next dependency edge to follow, -1 when done
	}
	var stack []frame
	for start := 0; start < numChans; start++ {
		if !used[start] || color[start] != white {
			continue
		}
		stack = append(stack[:0], frame{c: int32(start), next: depHead[start]})
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next >= 0 {
				nc := depTo[f.next]
				f.next = depNext[f.next]
				switch color[nc] {
				case gray:
					return fmt.Errorf("route: channel dependency cycle through hop %s", describe(nc))
				case white:
					color[nc] = gray
					stack = append(stack, frame{c: nc, next: depHead[nc]})
				}
				continue
			}
			color[f.c] = black
			stack = stack[:len(stack)-1]
		}
	}
	return nil
}

// transpose returns the square table m with rows and columns swapped,
// copying tile by tile so both sides stay cache-resident.
func transpose(m [][]sim.SwitchID) [][]sim.SwitchID {
	n := len(m)
	out := newTable(n, 0)
	const tile = 64
	for r0 := 0; r0 < n; r0 += tile {
		for c0 := 0; c0 < n; c0 += tile {
			for r := r0; r < min(r0+tile, n); r++ {
				row := m[r]
				for c := c0; c < min(c0+tile, n); c++ {
					out[c][r] = row[c]
				}
			}
		}
	}
	return out
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
