package route

import (
	"fmt"

	"wimc/internal/config"
	"wimc/internal/exp/pool"
	"wimc/internal/sim"
	"wimc/internal/topo"
)

// RouteClass identifies one per-fabric-class forwarding table. A packet's
// class is fixed at injection and every switch on its path routes it by
// that class's table.
type RouteClass uint8

// Route classes. ClassWirelessPreferred is always index 0 so a zero-valued
// packet routes exactly like the single-table simulator.
const (
	// ClassWirelessPreferred routes over the full graph (wired edges plus
	// the wireless full graph) — the only table of a non-hybrid graph.
	ClassWirelessPreferred RouteClass = iota
	// ClassWiredOnly routes over the wired subgraph only; on a hybrid this
	// is the interposer underlay. Built for hybrid shortest-path graphs.
	ClassWiredOnly

	// NumClasses bounds the class space.
	NumClasses
)

// String returns the class name.
func (c RouteClass) String() string {
	switch c {
	case ClassWirelessPreferred:
		return "wireless-preferred"
	case ClassWiredOnly:
		return "wired-only"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// ClassTables holds the per-fabric-class forwarding tables of one graph.
type ClassTables struct {
	// Classes is indexed by RouteClass. Classes[ClassWirelessPreferred] is
	// always present; Classes[ClassWiredOnly] is non-nil only on
	// multi-class graphs (hybrid architecture, shortest-path routing).
	Classes [NumClasses]*Tables

	// TxWI[s][d] is the host switch of the transmitting WI on the class-0
	// route from s to d — the switch whose WI's TX backlog gates that
	// route's wireless hop — or sim.NoSwitch when the class-0 route is
	// fully wired. Filled only on multi-class graphs (nil otherwise); the
	// adaptive selector reads it per injection.
	TxWI [][]sim.SwitchID
}

// Primary returns the class-0 table (the single-table equivalent).
func (ct *ClassTables) Primary() *Tables { return ct.Classes[ClassWirelessPreferred] }

// Class returns the table for c, falling back to class 0 when c has no
// table on this graph (e.g. wired-only on a non-hybrid).
func (ct *ClassTables) Class(c RouteClass) *Tables {
	if int(c) < len(ct.Classes) && ct.Classes[c] != nil {
		return ct.Classes[c]
	}
	return ct.Classes[ClassWirelessPreferred]
}

// MultiClass reports whether more than one class table was built.
func (ct *ClassTables) MultiClass() bool { return ct.Classes[ClassWiredOnly] != nil }

// Tables returns the non-nil class tables in class order (the deadlock
// union check verifies exactly these).
func (ct *ClassTables) Tables() []*Tables {
	out := make([]*Tables, 0, len(ct.Classes))
	for _, t := range ct.Classes {
		if t != nil {
			out = append(out, t)
		}
	}
	return out
}

// BuildClasses computes the per-class forwarding tables for the graph.
// Class 0 is always the full-graph table. Hybrid
// graphs under shortest-path routing additionally get the wired-only
// class table and the TxWI lookup; every other architecture has exactly
// one medium choice per pair, so only class 0 exists.
func BuildClasses(g *topo.Graph, workers int) (*ClassTables, error) {
	ct := &ClassTables{}
	primary, err := buildSingle(g, workers, true)
	if err != nil {
		return nil, err
	}
	ct.Classes[ClassWirelessPreferred] = primary
	if g.Cfg.Arch != config.ArchHybrid || g.Cfg.Routing != config.RouteShortest || !g.HasWireless() {
		return ct, nil
	}
	wired, err := buildSingle(g, workers, false)
	if err != nil {
		return nil, fmt.Errorf("route: wired-only class: %w", err)
	}
	ct.Classes[ClassWiredOnly] = wired
	ct.TxWI = txWITable(g, primary, workers)
	return ct, nil
}

// txWITable fills TxWI: for every destination column, the transmitting-WI
// switch of each source is memoized along next-hop chains (routing is
// memoryless, so the first wireless hop at or after a switch is shared by
// every source routing through it) — O(n) per destination. The columns
// are read in the deadlock walk's tiles; tiles are independent and fan
// out across the worker pool like the Dijkstra fills.
func txWITable(g *topo.Graph, t *Tables, workers int) [][]sim.SwitchID {
	n := g.SwitchCount()
	tx := newTable(n, sim.NoSwitch)
	tiles := (n + tileWidth - 1) / tileWidth
	_ = pool.ForEach(workers, tiles, func(b int) error {
		d0, d1 := b*tileWidth, min((b+1)*tileWidth, n)
		tile := make([]sim.SwitchID, (d1-d0)*n)
		columnTile(t.Next, d0, d1, tile)
		// done[s] marks resolved entries of the current column. sim.NoSwitch
		// is a valid resolved value, so a separate marker is required.
		done := make([]bool, n)
		var chain []int32
		for d := d0; d < d1; d++ {
			toward := tile[(d-d0)*n : (d-d0+1)*n]
			clear(done)
			done[d] = true
			for s := 0; s < n; s++ {
				chain = chain[:0]
				cur := sim.SwitchID(s)
				for !done[cur] {
					chain = append(chain, int32(cur))
					done[cur] = true
					nxt := toward[cur]
					if nxt == sim.NoSwitch || nxt == cur {
						// Defensive: an unroutable pair is reported by the
						// table build and the deadlock walk; leave the
						// chain's entries at NoSwitch instead of walking
						// off the table.
						break
					}
					if t.IsWireless(cur, nxt) {
						// cur transmits: every switch on the chain so far
						// routes its wireless hop through cur's WI.
						for _, u := range chain {
							tx[u][d] = cur
						}
						chain = chain[:0]
					}
					cur = nxt
				}
				// The suffix from cur is resolved; propagate its value
				// (which may be NoSwitch — fully wired remainder) to the
				// open chain.
				for _, u := range chain {
					tx[u][d] = tx[cur][d]
				}
			}
		}
		return nil
	})
	return tx
}
