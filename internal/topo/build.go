package topo

import (
	"fmt"

	"wimc/internal/config"
	"wimc/internal/sim"
)

// Build validates cfg and constructs the topology graph for its
// architecture in one sequential pass.
func Build(cfg config.Config) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &builder{cfg: cfg, g: &Graph{Cfg: cfg}}
	b.coreSwitches()
	b.meshEdges()
	switch cfg.Arch {
	case config.ArchSubstrate:
		b.serialEdges()
	case config.ArchInterposer, config.ArchHybrid:
		b.interposerEdges()
	case config.ArchWireless:
		// No inter-chip wires: connectivity comes from the wireless fabric.
	}
	b.memoryStacks()
	b.coreEndpoints()
	if cfg.Arch == config.ArchWireless || cfg.Arch == config.ArchHybrid {
		if err := b.placeWIs(); err != nil {
			return nil, err
		}
	}
	if err := b.check(); err != nil {
		return nil, err
	}
	return b.g, nil
}

// BuildWorkers is Build. The worker bound is ignored: construction is one
// sequential pass. The alias remains only because the benchmark module
// (bench/) calls it.
func BuildWorkers(cfg config.Config, _ int) (*Graph, error) { return Build(cfg) }

type builder struct {
	cfg config.Config
	g   *Graph
}

// globalCols and globalRows give the full core-mesh extent across chips.
func (b *builder) globalCols() int { return b.cfg.ChipsX * b.cfg.CoresX }
func (b *builder) globalRows() int { return b.cfg.ChipsY * b.cfg.CoresY }

// coreSwitchID maps a global (gx, gy) core coordinate to its switch ID.
func (b *builder) coreSwitchID(gx, gy int) sim.SwitchID {
	return sim.SwitchID(gy*b.globalCols() + gx)
}

// chipOf returns the chip index containing global coordinate (gx, gy).
func (b *builder) chipOf(gx, gy int) int {
	return (gy/b.cfg.CoresY)*b.cfg.ChipsX + gx/b.cfg.CoresX
}

// coreSwitches creates the mesh switch of every core in row-major order,
// so a node's ID is its index.
func (b *builder) coreSwitches() {
	cols, rows := b.globalCols(), b.globalRows()
	b.g.Nodes = make([]Node, 0, cols*rows+b.cfg.MemStacks)
	for gy := 0; gy < rows; gy++ {
		for gx := 0; gx < cols; gx++ {
			b.g.Nodes = append(b.g.Nodes, Node{
				ID:    b.coreSwitchID(gx, gy),
				Kind:  KindCore,
				Chip:  b.chipOf(gx, gy),
				Stack: -1,
				GX:    gx,
				GY:    gy,
				WI:    -1,
			})
		}
	}
}

// meshEdges wires the intra-chip mesh: single-cycle links between adjacent
// switches of the same chip (paper: "all intra-chip wired links are
// considered to be single-cycle links"), in row-major order.
func (b *builder) meshEdges() {
	cfg := b.cfg
	cols, rows := b.globalCols(), b.globalRows()
	b.g.Edges = make([]Edge, 0, 2*cols*rows)
	for gy := 0; gy < rows; gy++ {
		for gx := 0; gx < cols; gx++ {
			if gx+1 < cols && b.chipOf(gx, gy) == b.chipOf(gx+1, gy) {
				b.addEdge(b.coreSwitchID(gx, gy), b.coreSwitchID(gx+1, gy),
					EdgeMesh, cfg.MeshLatency, sim.RateOne, cfg.MeshPJPerBit)
			}
			if gy+1 < rows && b.chipOf(gx, gy) == b.chipOf(gx, gy+1) {
				b.addEdge(b.coreSwitchID(gx, gy), b.coreSwitchID(gx, gy+1),
					EdgeMesh, cfg.MeshLatency, sim.RateOne, cfg.MeshPJPerBit)
			}
		}
	}
}

// serialEdges wires the substrate architecture: a single high-speed serial
// I/O link between the facing boundary-center switches of each pair of
// adjacent chips ("only a single inter-chip link between switches at the
// center of the adjacent boundaries", paper §IV.A.1).
func (b *builder) serialEdges() {
	cfg := b.cfg
	rate := sim.RateFromGbps(cfg.SerialGbps, cfg.FlitBits, cfg.ClockGHz)
	// Horizontal chip adjacencies.
	for cy := 0; cy < cfg.ChipsY; cy++ {
		for cx := 0; cx+1 < cfg.ChipsX; cx++ {
			gy := cy*cfg.CoresY + cfg.CoresY/2
			gx := cx*cfg.CoresX + cfg.CoresX - 1
			b.addEdge(b.coreSwitchID(gx, gy), b.coreSwitchID(gx+1, gy),
				EdgeSerial, cfg.SerialLatency, rate, cfg.SerialPJPerBit)
		}
	}
	// Vertical chip adjacencies.
	for cy := 0; cy+1 < cfg.ChipsY; cy++ {
		for cx := 0; cx < cfg.ChipsX; cx++ {
			gx := cx*cfg.CoresX + cfg.CoresX/2
			gy := cy*cfg.CoresY + cfg.CoresY - 1
			b.addEdge(b.coreSwitchID(gx, gy), b.coreSwitchID(gx, gy+1),
				EdgeSerial, cfg.SerialLatency, rate, cfg.SerialPJPerBit)
		}
	}
}

// interposerEdges wires the interposer architecture: the mesh is extended
// across chip boundaries by joining facing boundary switch pairs with
// µbump-limited interposer links (paper §IV.A.2, after Jerger et al. [2]).
// InterposerBoundaryFr < 1 thins each boundary to an evenly spaced subset,
// modeling a tighter µbump budget (Validate keeps it in (0,1]). Every
// horizontal boundary precedes every vertical one.
func (b *builder) interposerEdges() {
	cfg := b.cfg
	rate := sim.RateFromGbps(cfg.InterposerGbps, cfg.FlitBits, cfg.ClockGHz)
	take := func(n int) map[int]bool {
		k := int(float64(n)*cfg.InterposerBoundaryFr + 0.5)
		if k < 1 {
			k = 1
		}
		sel := make(map[int]bool, k)
		for i := 0; i < k; i++ {
			sel[(2*i+1)*n/(2*k)] = true
		}
		return sel
	}
	// Horizontal boundaries.
	sel := take(cfg.CoresY)
	for cy := 0; cy < cfg.ChipsY; cy++ {
		for cx := 0; cx+1 < cfg.ChipsX; cx++ {
			for ly := 0; ly < cfg.CoresY; ly++ {
				if !sel[ly] {
					continue
				}
				gy := cy*cfg.CoresY + ly
				gx := cx*cfg.CoresX + cfg.CoresX - 1
				b.addEdge(b.coreSwitchID(gx, gy), b.coreSwitchID(gx+1, gy),
					EdgeInterposer, cfg.InterposerLatency, rate, cfg.InterposerPJPerBit)
			}
		}
	}
	// Vertical boundaries.
	sel = take(cfg.CoresX)
	for cy := 0; cy+1 < cfg.ChipsY; cy++ {
		for cx := 0; cx < cfg.ChipsX; cx++ {
			for lx := 0; lx < cfg.CoresX; lx++ {
				if !sel[lx] {
					continue
				}
				gx := cx*cfg.CoresX + lx
				gy := cy*cfg.CoresY + cfg.CoresY - 1
				b.addEdge(b.coreSwitchID(gx, gy), b.coreSwitchID(gx, gy+1),
					EdgeInterposer, cfg.InterposerLatency, rate, cfg.InterposerPJPerBit)
			}
		}
	}
}

// memoryStacks creates the memory modules: one logic-die switch per stack,
// wide-I/O attachment to the adjacent chip edge in the wired architectures,
// and one DRAM-channel endpoint per channel reached through TSVs.
func (b *builder) memoryStacks() {
	cfg := b.cfg
	perSide := cfg.MemStacks / 2
	rows := b.globalRows()
	for i := 0; i < cfg.MemStacks; i++ {
		side := SideLeft
		k := i
		if i >= perSide {
			side = SideRight
			k = i - perSide
		}
		gy := (2*k + 1) * rows / (2 * perSide)
		b.g.Stacks = append(b.g.Stacks, Stack{
			Index:    i,
			Side:     side,
			Row:      gy / cfg.CoresY,
			Layers:   cfg.MemLayers,
			Channels: cfg.MemChannels,
		})

		// Logic-die switch.
		swID := sim.SwitchID(len(b.g.Nodes))
		gx := -1
		attachGX := 0
		if side == SideRight {
			gx = b.globalCols()
			attachGX = b.globalCols() - 1
		}
		b.g.Nodes = append(b.g.Nodes, Node{
			ID:    swID,
			Kind:  KindMemLogic,
			Chip:  -1,
			Stack: i,
			GX:    gx,
			GY:    gy,
			WI:    -1,
		})

		// Wide memory I/O to the facing chip edge (wired architectures
		// only). The 128-bit wide I/O is split into one physical link per
		// DRAM channel (the stack "is assumed to have four channels"),
		// attached at distinct rows of the facing chip edge so the
		// aggregate reaches the full wide-I/O rate through one-flit ports.
		if cfg.Arch != config.ArchWireless {
			nLinks := cfg.MemChannels
			if nLinks > cfg.CoresY {
				nLinks = cfg.CoresY
			}
			perLink := sim.RateFromGbps(cfg.WideIOGbps/float64(nLinks),
				cfg.FlitBits, cfg.ClockGHz)
			chipTop := (gy / cfg.CoresY) * cfg.CoresY
			for k := 0; k < nLinks; k++ {
				row := chipTop + (2*k+1)*cfg.CoresY/(2*nLinks)
				b.addEdge(swID, b.coreSwitchID(attachGX, row),
					EdgeWideIO, cfg.WideIOLatency, perLink, cfg.WideIOPJPerBit)
			}
		}

		// DRAM channel endpoints behind TSVs. Channels go round-robin over
		// the layers, channel 0 on layer 1 (nearest the logic die), and a
		// flit crosses one TSV boundary per layer to reach its channel.
		for ch := 0; ch < cfg.MemChannels; ch++ {
			layer := 1 + ch%cfg.MemLayers
			epID := sim.EndpointID(len(b.g.Endpoints))
			b.g.Endpoints = append(b.g.Endpoints, Endpoint{
				ID:            epID,
				Switch:        swID,
				Kind:          EndMemChannel,
				Chip:          -1,
				Stack:         i,
				Channel:       ch,
				LocalLatency:  layer * max(cfg.TSVLatency, 1),
				LocalPJPerBit: float64(layer) * cfg.TSVPJPerBitPerLayer,
			})
			b.g.MemChannels = append(b.g.MemChannels, epID)
		}
	}
}

// coreEndpoints attaches one processor core to every core switch.
func (b *builder) coreEndpoints() {
	for _, n := range b.g.Nodes {
		if n.Kind != KindCore {
			continue
		}
		epID := sim.EndpointID(len(b.g.Endpoints))
		b.g.Endpoints = append(b.g.Endpoints, Endpoint{
			ID:            epID,
			Switch:        n.ID,
			Kind:          EndCore,
			Chip:          n.Chip,
			Stack:         -1,
			Channel:       -1,
			LocalLatency:  1,
			LocalPJPerBit: b.cfg.LocalPJPerBit,
		})
		b.g.Cores = append(b.g.Cores, epID)
	}
}

// addEdge appends one edge; a latency below one cycle counts as one.
func (b *builder) addEdge(a, bb sim.SwitchID, k EdgeKind, lat int, rate sim.Rate, pj float64) {
	b.g.Edges = append(b.g.Edges, Edge{A: a, B: bb, Kind: k, Latency: max(lat, 1), Rate: rate, PJPerBit: pj})
}

// check validates structural invariants of the built graph.
func (b *builder) check() error {
	g := b.g
	if len(g.Cores) != b.cfg.Cores() {
		return fmt.Errorf("topo: built %d cores, want %d", len(g.Cores), b.cfg.Cores())
	}
	if len(g.MemChannels) != b.cfg.MemStacks*b.cfg.MemChannels {
		return fmt.Errorf("topo: built %d memory channels, want %d",
			len(g.MemChannels), b.cfg.MemStacks*b.cfg.MemChannels)
	}
	for _, e := range g.Edges {
		if e.A == e.B {
			return fmt.Errorf("topo: self-loop edge at switch %d", e.A)
		}
		if int(e.A) >= len(g.Nodes) || int(e.B) >= len(g.Nodes) || e.A < 0 || e.B < 0 {
			return fmt.Errorf("topo: edge endpoints out of range: %d-%d", e.A, e.B)
		}
	}
	if b.cfg.Arch == config.ArchWireless || b.cfg.Arch == config.ArchHybrid {
		want := b.cfg.Chips()*b.cfg.WIsPerChip() + b.cfg.MemStacks
		if len(g.WISwitches) != want {
			return fmt.Errorf("topo: placed %d WIs, want %d", len(g.WISwitches), want)
		}
	}
	return nil
}
