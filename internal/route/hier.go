package route

import (
	"fmt"

	"wimc/internal/exp/pool"
	"wimc/internal/sim"
	"wimc/internal/topo"
)

// buildSubstrateHier fills the tables with hierarchical routing for the
// substrate architecture.
//
// The substrate joins adjacent chips with single serial links, so a chip
// grid forms rings; minimal routing over a ring has cyclic channel
// dependencies under wormhole switching (VC datelines would be required).
// Instead, chip-to-chip traffic follows a chip-level spanning tree — column
// trunks plus a row-0 spine (from chip (cx,cy): vertically to row 0, along
// row 0, vertically to the destination row) — while intra-chip segments use
// plain XY mesh routing. Ring links outside the tree carry no traffic; the
// deadlock checker verifies the composite. Memory stacks hang off a single
// wide-I/O edge, never carry transit traffic, and therefore cannot
// participate in any cycle.
//
// The construction checks neither for route loops nor for hops over
// missing links. Both production callers of a builder, engine.New and
// wimctopo, run the channel-dependency walk (CheckDeadlockFreeUnion) over
// the result, and it reports both faults:
// "route: routing loop from s to d" and "route: hop u->v toward d is not a
// link".
func (t *Tables) buildSubstrateHier(g *topo.Graph) error {
	n := g.SwitchCount()
	cfg := g.Cfg

	// Gateways: for each chip, the boundary switch carrying the serial link
	// in each direction, and the switch across it.
	type gateway struct {
		local  sim.SwitchID // boundary switch inside this chip
		remote sim.SwitchID // facing switch in the adjacent chip
	}
	const (
		dirEast = iota
		dirWest
		dirNorth
		dirSouth
	)
	gw := make(map[int][4]*gateway, cfg.Chips())
	for _, e := range g.Edges {
		if e.Kind != topo.EdgeSerial {
			continue
		}
		a, b := g.Nodes[e.A], g.Nodes[e.B]
		set := func(chip, dir int, local, remote sim.SwitchID) {
			entry := gw[chip]
			entry[dir] = &gateway{local: local, remote: remote}
			gw[chip] = entry
		}
		if a.GY == b.GY { // horizontal crossing; a is west of b by construction
			set(a.Chip, dirEast, a.ID, b.ID)
			set(b.Chip, dirWest, b.ID, a.ID)
		} else { // vertical crossing; a is north of b
			set(a.Chip, dirSouth, a.ID, b.ID)
			set(b.Chip, dirNorth, b.ID, a.ID)
		}
	}

	// Memory stacks: anchor chip switches (the wide-I/O peers, one per
	// attach link).
	anchors := make(map[sim.SwitchID][]sim.SwitchID)
	for _, e := range g.Edges {
		if e.Kind != topo.EdgeWideIO {
			continue
		}
		m, c := e.A, e.B
		if g.Nodes[m].Kind != topo.KindMemLogic {
			m, c = c, m
		}
		anchors[m] = append(anchors[m], c)
	}
	// closestAnchor picks the attach switch nearest to s's row
	// (memoryless and convergent: the choice only depends on s's row).
	closestAnchor := func(s, mem sim.SwitchID) sim.SwitchID {
		best := anchors[mem][0]
		bestD := -1
		for _, a := range anchors[mem] {
			d := g.Nodes[a].GY - g.Nodes[s].GY
			if d < 0 {
				d = -d
			}
			if bestD < 0 || d < bestD || (d == bestD && a < best) {
				best = a
				bestD = d
			}
		}
		return best
	}

	chipOf := func(s sim.SwitchID) int { return g.Nodes[s].Chip }
	chipX := func(chip int) int { return chip % cfg.ChipsX }
	chipY := func(chip int) int { return chip / cfg.ChipsX }

	// intraNext: XY mesh routing toward a switch in the same chip.
	cols := cfg.ChipsX * cfg.CoresX
	intraNext := func(s, d sim.SwitchID) sim.SwitchID {
		a, b := g.Nodes[s], g.Nodes[d]
		switch {
		case a.GX < b.GX:
			return sim.SwitchID(a.GY*cols + a.GX + 1)
		case a.GX > b.GX:
			return sim.SwitchID(a.GY*cols + a.GX - 1)
		case a.GY < b.GY:
			return sim.SwitchID((a.GY+1)*cols + a.GX)
		case a.GY > b.GY:
			return sim.SwitchID((a.GY-1)*cols + a.GX)
		default:
			return d
		}
	}

	// chipDir gives the next chip-level direction on the spanning tree:
	// vertical to row 0, horizontal along row 0, vertical to the target row.
	chipDir := func(sc, tc int) int {
		sx, sy := chipX(sc), chipY(sc)
		tx, ty := chipX(tc), chipY(tc)
		switch {
		case sx != tx && sy != 0:
			return dirNorth // climb to the spine first
		case sx < tx:
			return dirEast
		case sx > tx:
			return dirWest
		case sy < ty:
			return dirSouth
		default:
			return dirNorth
		}
	}

	// next computes the memoryless next hop from s toward dest switch d.
	next := func(s, d sim.SwitchID) (sim.SwitchID, error) {
		if s == d {
			return d, nil
		}
		// Memory switch as source: leave through the wide I/O.
		if g.Nodes[s].Kind == topo.KindMemLogic {
			return anchors[s][0], nil
		}
		// Destination on a memory stack: head for its nearest anchor chip
		// switch first, then cross the wide I/O.
		target := d
		if g.Nodes[d].Kind == topo.KindMemLogic {
			a := closestAnchor(s, d)
			if s == a {
				return d, nil
			}
			target = a
		}
		sc, tc := chipOf(s), chipOf(target)
		if sc == tc {
			return intraNext(s, target), nil
		}
		dir := chipDir(sc, tc)
		gws := gw[sc]
		gwy := gws[dir]
		if gwy == nil {
			return sim.NoSwitch, fmt.Errorf("route: chip %d lacks a direction-%d serial gateway", sc, dir)
		}
		if s == gwy.local {
			return gwy.remote, nil
		}
		return intraNext(s, gwy.local), nil
	}

	// The next-hop function is memoryless and all chip/gateway/anchor state
	// above is read-only by now, so each source row of the table fills
	// independently on the worker pool.
	t.Next = newTable(n, sim.NoSwitch)
	err := pool.ForEach(t.workers, n, func(s int) error {
		for d := 0; d < n; d++ {
			nh, err := next(sim.SwitchID(s), sim.SwitchID(d))
			if err != nil {
				return err
			}
			t.Next[s][d] = nh
		}
		return nil
	})
	return err
}
