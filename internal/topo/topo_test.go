package topo

import (
	"testing"

	"wimc/internal/config"
	"wimc/internal/sim"
)

func build(t *testing.T, chips int, arch config.Architecture) *Graph {
	t.Helper()
	return buildCfg(t, config.MustXCYM(chips, 4, arch))
}

func buildCfg(t *testing.T, cfg config.Config) *Graph {
	t.Helper()
	g, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build(%s): %v", cfg.Name, err)
	}
	return g
}

func countEdges(g *Graph, k EdgeKind) int {
	n := 0
	for _, e := range g.Edges {
		if e.Kind == k {
			n++
		}
	}
	return n
}

func TestSwitchAndEndpointInventory(t *testing.T) {
	for _, chips := range []int{1, 4, 8} {
		for _, arch := range []config.Architecture{config.ArchSubstrate, config.ArchInterposer, config.ArchWireless} {
			g := build(t, chips, arch)
			if got := g.SwitchCount(); got != 64+4 {
				t.Errorf("%dC/%s: %d switches, want 68", chips, arch, got)
			}
			if got := len(g.Cores); got != 64 {
				t.Errorf("%dC/%s: %d cores, want 64", chips, arch, got)
			}
			if got := len(g.MemChannels); got != 16 {
				t.Errorf("%dC/%s: %d mem channels, want 16", chips, arch, got)
			}
			if got := g.EndpointCount(); got != 80 {
				t.Errorf("%dC/%s: %d endpoints, want 80", chips, arch, got)
			}
		}
	}
}

func TestMeshEdgeCounts(t *testing.T) {
	// Mesh edges stay within chips: a WxH chip has W(H-1)+H(W-1) edges.
	tests := []struct {
		chips int
		want  int
	}{
		{1, 2 * 8 * 7},       // one 8x8 chip
		{4, 4 * (2 * 4 * 3)}, // four 4x4 chips
		{8, 8 * (2*4 + 1*3)}, // eight 2x4 chips: 2*4... verify: W=2,H=4: W(H-1)+H(W-1) = 2*3+4*1 = 10
	}
	for _, tc := range tests {
		g := build(t, tc.chips, config.ArchWireless)
		want := tc.want
		if tc.chips == 8 {
			want = 8 * 10
		}
		if got := countEdges(g, EdgeMesh); got != want {
			t.Errorf("%dC mesh edges = %d, want %d", tc.chips, got, want)
		}
	}
}

func TestSerialEdges(t *testing.T) {
	tests := []struct {
		chips int
		want  int // boundaries between adjacent chips
	}{
		{1, 0},
		{4, 4},  // 2x2 grid: 2 horizontal + 2 vertical
		{8, 10}, // 4x2 grid: 3*2 horizontal + 4 vertical
	}
	for _, tc := range tests {
		g := build(t, tc.chips, config.ArchSubstrate)
		if got := countEdges(g, EdgeSerial); got != tc.want {
			t.Errorf("%dC serial edges = %d, want %d", tc.chips, got, tc.want)
		}
		if got := countEdges(g, EdgeInterposer); got != 0 {
			t.Errorf("%dC substrate has %d interposer edges", tc.chips, got)
		}
	}
}

func TestInterposerEdges(t *testing.T) {
	tests := []struct {
		chips int
		want  int // all facing boundary switch pairs
	}{
		{1, 0},
		{4, 16},        // 2 horizontal boundaries * 4 rows + 2 vertical * 4 cols
		{8, 6*4 + 4*2}, // 6 horizontal boundaries * 4 rows + 4 vertical * 2 cols
	}
	for _, tc := range tests {
		g := build(t, tc.chips, config.ArchInterposer)
		if got := countEdges(g, EdgeInterposer); got != tc.want {
			t.Errorf("%dC interposer edges = %d, want %d", tc.chips, got, tc.want)
		}
		if got := countEdges(g, EdgeSerial); got != 0 {
			t.Errorf("%dC interposer has %d serial edges", tc.chips, got)
		}
	}
}

func TestWirelessHasNoInterChipWires(t *testing.T) {
	for _, chips := range []int{1, 4, 8} {
		g := build(t, chips, config.ArchWireless)
		if n := countEdges(g, EdgeSerial) + countEdges(g, EdgeInterposer) + countEdges(g, EdgeWideIO); n != 0 {
			t.Errorf("%dC wireless has %d inter-chip wired edges", chips, n)
		}
	}
}

func TestHybridCombinesWiresAndWIs(t *testing.T) {
	g := build(t, 4, config.ArchHybrid)
	if countEdges(g, EdgeInterposer) != 16 {
		t.Fatalf("hybrid interposer edges = %d, want 16", countEdges(g, EdgeInterposer))
	}
	if countEdges(g, EdgeWideIO) != 16 {
		t.Fatalf("hybrid wide-IO edges = %d, want 16", countEdges(g, EdgeWideIO))
	}
	if len(g.WISwitches) != 8 {
		t.Fatalf("hybrid WIs = %d, want 8", len(g.WISwitches))
	}
}

func TestWideIOMultiAttach(t *testing.T) {
	// Wired architectures: one wide-I/O link per DRAM channel per stack.
	for _, arch := range []config.Architecture{config.ArchSubstrate, config.ArchInterposer} {
		g := build(t, 4, arch)
		if got := countEdges(g, EdgeWideIO); got != 4*4 {
			t.Errorf("%s wide-IO edges = %d, want 16", arch, got)
		}
		// Each wide-I/O edge joins a memory switch to a chip-edge switch on
		// the stack's side.
		for _, e := range g.Edges {
			if e.Kind != EdgeWideIO {
				continue
			}
			m, c := g.Nodes[e.A], g.Nodes[e.B]
			if m.Kind != KindMemLogic {
				m, c = c, m
			}
			if m.Kind != KindMemLogic || c.Kind != KindCore {
				t.Fatalf("wide-IO edge joins %v and %v", m.Kind, c.Kind)
			}
			if c.GX != 0 && c.GX != 7 {
				t.Errorf("wide-IO attaches at column %d, want an edge column", c.GX)
			}
		}
	}
}

func TestStacksFlankBothSides(t *testing.T) {
	g := build(t, 4, config.ArchSubstrate)
	if len(g.Stacks) != 4 {
		t.Fatalf("%d stacks, want 4", len(g.Stacks))
	}
	left, right := 0, 0
	for _, st := range g.Stacks {
		switch st.Side {
		case SideLeft:
			left++
		case SideRight:
			right++
		}
	}
	if left != 2 || right != 2 {
		t.Fatalf("stacks split %d/%d, want 2/2", left, right)
	}
}

// TestMemChannelTSVModel checks the DRAM-channel endpoints behind each
// stack's TSVs: channels go round-robin over the layers, channel 0 on
// layer 1, also with more channels than layers, and each endpoint's local
// latency is its layer times tsv_latency_cycles, floored at one cycle per
// layer, and its energy its layer times tsv_pj_per_bit_per_layer, also at
// a per-layer energy other than the default.
func TestMemChannelTSVModel(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		layers, channels     int
		tsvLatency, perLayer int // perLayer: the floored latency per layer
		pjPerLayer           float64
		wantLayers           []int
	}{
		{"paper", 4, 4, 1, 1, 0.05, []int{1, 2, 3, 4}},
		{"more-channels-than-layers", 2, 4, 3, 3, 0.05, []int{1, 2, 1, 2}},
		{"latency-floor", 4, 4, 0, 1, 0.05, []int{1, 2, 3, 4}},
		{"tsv-energy", 4, 4, 1, 1, 0.2, []int{1, 2, 3, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.MustXCYM(4, 4, config.ArchSubstrate)
			cfg.MemLayers = tc.layers
			cfg.MemChannels = tc.channels
			cfg.TSVLatency = tc.tsvLatency
			cfg.TSVPJPerBitPerLayer = tc.pjPerLayer
			g := buildCfg(t, cfg)
			for _, st := range g.Stacks {
				if st.Layers != tc.layers || st.Channels != tc.channels {
					t.Fatalf("stack %d: %d layers, %d channels; want %d, %d",
						st.Index, st.Layers, st.Channels, tc.layers, tc.channels)
				}
			}
			if len(g.MemChannels) != len(g.Stacks)*tc.channels {
				t.Fatalf("%d channel endpoints for %d stacks of %d channels",
					len(g.MemChannels), len(g.Stacks), tc.channels)
			}
			for _, id := range g.MemChannels {
				ep := g.Endpoints[id]
				layer := tc.wantLayers[ep.Channel]
				if ep.LocalLatency != layer*tc.perLayer {
					t.Fatalf("stack %d channel %d: latency %d, want %d (layer %d)",
						ep.Stack, ep.Channel, ep.LocalLatency, layer*tc.perLayer, layer)
				}
				if want := float64(layer) * tc.pjPerLayer; ep.LocalPJPerBit != want {
					t.Fatalf("stack %d channel %d: %v pJ/bit, want %v (layer %d)",
						ep.Stack, ep.Channel, ep.LocalPJPerBit, want, layer)
				}
			}
		})
	}
}

func TestWIPlacement(t *testing.T) {
	tests := []struct {
		chips   int
		wantWIs int
	}{
		{1, 4 + 4}, // four 4x4 clusters + four stacks
		{4, 4 + 4}, // one per chip + stacks
		{8, 8 + 4},
	}
	for _, tc := range tests {
		g := build(t, tc.chips, config.ArchWireless)
		if got := len(g.WISwitches); got != tc.wantWIs {
			t.Errorf("%dC WIs = %d, want %d", tc.chips, got, tc.wantWIs)
		}
		// Memory WIs come last (MAC sequence is chips first).
		for i, s := range g.WISwitches {
			isMem := g.Nodes[s].Kind == KindMemLogic
			wantMem := i >= tc.wantWIs-4
			if isMem != wantMem {
				t.Errorf("%dC WI %d memory=%v, want %v", tc.chips, i, isMem, wantMem)
			}
			if g.Nodes[s].WI != i {
				t.Errorf("%dC node WI index %d != position %d", tc.chips, g.Nodes[s].WI, i)
			}
		}
	}
	// Wired architectures place no WIs.
	g := build(t, 4, config.ArchInterposer)
	if len(g.WISwitches) != 0 {
		t.Fatalf("interposer has %d WIs", len(g.WISwitches))
	}
}

// TestWIPlacementIsMAD verifies the minimum-average-distance property: no
// other switch of the cluster has a smaller total Manhattan distance to the
// cluster members than the chosen WI host.
func TestWIPlacementIsMAD(t *testing.T) {
	for _, chips := range []int{1, 4, 8} {
		g := build(t, chips, config.ArchWireless)
		cfg := g.Cfg
		// Rebuild cluster membership: cores in the same chip whose nearest
		// WI is the placed one.
		for _, wiSwitch := range g.WISwitches {
			wn := g.Nodes[wiSwitch]
			if wn.Kind != KindCore {
				continue
			}
			var members []Node
			for _, n := range g.Nodes {
				if n.Kind == KindCore && n.Chip == wn.Chip && sameCluster(cfg, n, wn) {
					members = append(members, n)
				}
			}
			if len(members) != cfg.CoresPerWI && cfg.CoresPerWI <= cfg.CoresPerChip() {
				t.Fatalf("chip %d cluster size %d, want %d", wn.Chip, len(members), cfg.CoresPerWI)
			}
			best := totalDist(wn, members)
			for _, cand := range members {
				if d := totalDist(cand, members); d < best {
					t.Errorf("chip %d: WI at (%d,%d) dist %d, but (%d,%d) has %d",
						wn.Chip, wn.GX, wn.GY, best, cand.GX, cand.GY, d)
				}
			}
		}
	}
}

// sameCluster reports whether two core nodes share a WI cluster tile.
func sameCluster(cfg config.Config, a, b Node) bool {
	tw, th, err := clusterDims(cfg.CoresX, cfg.CoresY, cfg.CoresPerWI)
	if err != nil {
		return false
	}
	ax, ay := a.GX%cfg.CoresX, a.GY%cfg.CoresY
	bx, by := b.GX%cfg.CoresX, b.GY%cfg.CoresY
	return ax/tw == bx/tw && ay/th == by/th
}

func totalDist(c Node, members []Node) int {
	sum := 0
	for _, m := range members {
		sum += abs(c.GX-m.GX) + abs(c.GY-m.GY)
	}
	return sum
}

func TestClusterDims(t *testing.T) {
	tests := []struct {
		cx, cy, per  int
		wantW, wantH int
		wantErr      bool
	}{
		{4, 4, 16, 4, 4, false},
		{8, 8, 16, 4, 4, false},
		{2, 4, 8, 2, 4, false},
		{8, 8, 32, 4, 8, false}, // ties in squareness resolve to the narrower tile
		{8, 8, 64, 8, 8, false},
		{8, 8, 128, 8, 8, false}, // denser than chip: whole chip
		{4, 4, 5, 0, 0, true},
	}
	for _, tc := range tests {
		w, h, err := clusterDims(tc.cx, tc.cy, tc.per)
		if tc.wantErr {
			if err == nil {
				t.Errorf("clusterDims(%d,%d,%d) accepted", tc.cx, tc.cy, tc.per)
			}
			continue
		}
		if err != nil {
			t.Errorf("clusterDims(%d,%d,%d): %v", tc.cx, tc.cy, tc.per, err)
			continue
		}
		if w*h < tc.per && !(tc.per > tc.cx*tc.cy) {
			t.Errorf("clusterDims(%d,%d,%d) = %dx%d too small", tc.cx, tc.cy, tc.per, w, h)
		}
		if tc.wantW != 0 && (w != tc.wantW || h != tc.wantH) {
			t.Errorf("clusterDims(%d,%d,%d) = %dx%d, want %dx%d",
				tc.cx, tc.cy, tc.per, w, h, tc.wantW, tc.wantH)
		}
	}
}

func TestEndpointLocalParameters(t *testing.T) {
	g := build(t, 4, config.ArchWireless)
	for _, ep := range g.Endpoints {
		switch ep.Kind {
		case EndCore:
			if ep.LocalLatency != 1 {
				t.Fatalf("core NI latency = %d", ep.LocalLatency)
			}
			if ep.Chip < 0 || ep.Stack != -1 {
				t.Fatalf("core endpoint chip/stack wrong: %+v", ep)
			}
		case EndMemChannel:
			// TSV latency grows with the channel's layer.
			if ep.LocalLatency < 1 || ep.LocalLatency > 4 {
				t.Fatalf("TSV latency = %d for channel %d", ep.LocalLatency, ep.Channel)
			}
			if ep.Stack < 0 || ep.Chip != -1 {
				t.Fatalf("memory endpoint chip/stack wrong: %+v", ep)
			}
		}
	}
}

func TestSerialGatewayAtBoundaryCenter(t *testing.T) {
	g := build(t, 4, config.ArchSubstrate)
	for _, e := range g.Edges {
		if e.Kind != EdgeSerial {
			continue
		}
		a, b := g.Nodes[e.A], g.Nodes[e.B]
		if a.GY == b.GY { // horizontal: row must be chip-center row (y%4 == 2)
			if a.GY%4 != 2 {
				t.Errorf("horizontal serial at row %d, want center", a.GY)
			}
		} else {
			if a.GX%4 != 2 {
				t.Errorf("vertical serial at column %d, want center", a.GX)
			}
		}
	}
}

func TestCornerSwitchEdges(t *testing.T) {
	g := build(t, 4, config.ArchInterposer)
	// Corner switch (0,0) has 2 mesh neighbors plus one wide-I/O attach
	// (the left stack's channel links spread over rows 0..3).
	deg := 0
	for _, e := range g.Edges {
		if e.A == 0 || e.B == 0 {
			deg++
		}
	}
	if deg != 3 {
		t.Fatalf("corner degree = %d, want 3", deg)
	}
}

func TestKindStrings(t *testing.T) {
	if KindCore.String() != "core" || KindMemLogic.String() != "mem-logic" {
		t.Fatal("node kind names")
	}
	if EdgeMesh.String() != "mesh" || EdgeWideIO.String() != "wide-io" {
		t.Fatal("edge kind names")
	}
	if EndCore.String() != "core" || EndMemChannel.String() != "mem-channel" {
		t.Fatal("endpoint kind names")
	}
	if NodeKind(9).String() == "" || EdgeKind(9).String() == "" || EndpointKind(9).String() == "" {
		t.Fatal("unknown kinds must stringify")
	}
}

func TestBuildRejectsInvalidConfig(t *testing.T) {
	cfg := config.MustXCYM(4, 4, config.ArchWireless)
	cfg.VCs = 0
	if _, err := Build(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestLargePresetInventory pins the derived inventory of the generalized
// presets: cores, stacks, WI count and the absence of cross-chip wires in
// the wireless system hold at 16/32/64 chips exactly as at paper scale.
func TestLargePresetInventory(t *testing.T) {
	for _, chips := range []int{16, 32, 64} {
		stacks := config.DefaultStacks(chips)
		g := buildCfg(t, config.MustXCYM(chips, stacks, config.ArchWireless))
		if got, want := len(g.Cores), chips*16; got != want {
			t.Errorf("%dC: %d cores, want %d", chips, got, want)
		}
		if got := len(g.Stacks); got != stacks {
			t.Errorf("%dC: %d stacks, want %d", chips, got, stacks)
		}
		// One WI per chip plus one per stack, chips first (MAC order).
		if got, want := len(g.WISwitches), chips+stacks; got != want {
			t.Errorf("%dC: %d WIs, want %d", chips, got, want)
		}
		for i, s := range g.WISwitches {
			if isMem, wantMem := g.Nodes[s].Kind == KindMemLogic, i >= chips; isMem != wantMem {
				t.Fatalf("%dC: WI %d memory=%v, want %v", chips, i, isMem, wantMem)
			}
		}
		if n := countEdges(g, EdgeSerial) + countEdges(g, EdgeInterposer) + countEdges(g, EdgeWideIO); n != 0 {
			t.Errorf("%dC wireless has %d inter-chip wired edges", chips, n)
		}
		// Wired variants keep per-channel wide-I/O attachment.
		gi := buildCfg(t, config.MustXCYM(chips, stacks, config.ArchInterposer))
		if got, want := countEdges(gi, EdgeWideIO), stacks*4; got != want {
			t.Errorf("%dC interposer wide-IO edges = %d, want %d", chips, got, want)
		}
	}
}

func TestChipAssignment(t *testing.T) {
	g := build(t, 4, config.ArchWireless)
	// Global (5,2) is chip 1 (top-right) for 2x2 chips of 4x4.
	id := sim.SwitchID(2*8 + 5)
	if got := g.Nodes[id].Chip; got != 1 {
		t.Fatalf("chip of (5,2) = %d, want 1", got)
	}
	// Global (3,6) is chip 2 (bottom-left).
	id = sim.SwitchID(6*8 + 3)
	if got := g.Nodes[id].Chip; got != 2 {
		t.Fatalf("chip of (3,6) = %d, want 2", got)
	}
}
