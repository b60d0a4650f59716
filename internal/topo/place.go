package topo

import (
	"fmt"

	"wimc/internal/sim"
)

// placeWIs deploys wireless interfaces for the wireless architecture:
// each chip is partitioned into clusters of CoresPerWI switches and one WI
// is placed at the minimum-average-distance (MAD) switch of each cluster
// (paper §III.A, after Yuan et al. [15]); every memory stack's logic die
// also carries one WI. Registration order is the WI numbering (MAC turn
// sequence): chip-major, clusters row-major within a chip, then stacks.
func (b *builder) placeWIs() error {
	cfg := b.cfg
	tw, th, err := clusterDims(cfg.CoresX, cfg.CoresY, cfg.CoresPerWI)
	if err != nil {
		return err
	}
	members := make([]sim.SwitchID, 0, tw*th)
	for chip := 0; chip < cfg.Chips(); chip++ {
		cx0 := (chip % cfg.ChipsX) * cfg.CoresX
		cy0 := (chip / cfg.ChipsX) * cfg.CoresY
		for ty := 0; ty < cfg.CoresY/th; ty++ {
			for tx := 0; tx < cfg.CoresX/tw; tx++ {
				members = members[:0]
				for ly := 0; ly < th; ly++ {
					for lx := 0; lx < tw; lx++ {
						members = append(members,
							b.coreSwitchID(cx0+tx*tw+lx, cy0+ty*th+ly))
					}
				}
				b.registerWI(b.madCenter(members))
			}
		}
	}
	for _, n := range b.g.Nodes {
		if n.Kind == KindMemLogic {
			b.registerWI(n.ID)
		}
	}
	return nil
}

func (b *builder) registerWI(s sim.SwitchID) {
	b.g.Nodes[s].WI = len(b.g.WISwitches)
	b.g.WISwitches = append(b.g.WISwitches, s)
}

// madCenter returns the cluster member minimizing the total Manhattan
// distance to all members (the minimum-average-distance deployment of [15]).
// Ties break to the lowest (row, column) so placement is deterministic.
func (b *builder) madCenter(members []sim.SwitchID) sim.SwitchID {
	best := members[0]
	bestSum := -1
	for _, cand := range members {
		cn := b.g.Nodes[cand]
		sum := 0
		for _, m := range members {
			mn := b.g.Nodes[m]
			sum += abs(cn.GX-mn.GX) + abs(cn.GY-mn.GY)
		}
		if bestSum < 0 || sum < bestSum ||
			(sum == bestSum && lessRowMajor(b.g.Nodes[cand], b.g.Nodes[best])) {
			best = cand
			bestSum = sum
		}
	}
	return best
}

func lessRowMajor(a, n Node) bool {
	if a.GY != n.GY {
		return a.GY < n.GY
	}
	return a.GX < n.GX
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// clusterDims chooses the most-square tile (tw × th = coresPerWI) that
// divides the chip mesh evenly.
func clusterDims(coresX, coresY, coresPerWI int) (tw, th int, err error) {
	if coresPerWI >= coresX*coresY {
		return coresX, coresY, nil // one WI per chip
	}
	bestDiff := -1
	for w := 1; w <= coresPerWI; w++ {
		if coresPerWI%w != 0 {
			continue
		}
		h := coresPerWI / w
		if coresX%w != 0 || coresY%h != 0 {
			continue
		}
		diff := abs(w - h)
		if bestDiff < 0 || diff < bestDiff {
			tw, th, bestDiff = w, h, diff
		}
	}
	if bestDiff < 0 {
		return 0, 0, fmt.Errorf("topo: cannot tile %dx%d chip into clusters of %d cores",
			coresX, coresY, coresPerWI)
	}
	return tw, th, nil
}
