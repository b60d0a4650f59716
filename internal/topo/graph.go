package topo

import (
	"fmt"

	"wimc/internal/config"
	"wimc/internal/sim"
)

// NodeKind distinguishes switch roles.
type NodeKind int

// Switch roles.
const (
	// KindCore is a mesh switch attached to one processor core.
	KindCore NodeKind = iota + 1
	// KindMemLogic is the base logic die switch of a memory stack.
	KindMemLogic
)

// String returns the kind name.
func (k NodeKind) String() string {
	switch k {
	case KindCore:
		return "core"
	case KindMemLogic:
		return "mem-logic"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Node is one switch in the package.
type Node struct {
	ID    sim.SwitchID
	Kind  NodeKind
	Chip  int // chip index, or -1 for memory switches
	Stack int // stack index, or -1 for core switches
	GX    int // global mesh column (core switches); attach column for memory
	GY    int // global mesh row
	WI    int // wireless interface index, or -1
}

// EdgeKind identifies the physical technology of a wired edge.
type EdgeKind int

// Wired edge technologies.
const (
	EdgeMesh EdgeKind = iota + 1
	EdgeInterposer
	EdgeSerial
	EdgeWideIO
)

// String returns the edge kind name.
func (k EdgeKind) String() string {
	switch k {
	case EdgeMesh:
		return "mesh"
	case EdgeInterposer:
		return "interposer"
	case EdgeSerial:
		return "serial"
	case EdgeWideIO:
		return "wide-io"
	default:
		return fmt.Sprintf("edge(%d)", int(k))
	}
}

// Edge is an undirected wired connection between two switches; the engine
// realizes it as a pair of directed links.
type Edge struct {
	A, B     sim.SwitchID
	Kind     EdgeKind
	Latency  int
	Rate     sim.Rate
	PJPerBit float64
}

// EndpointKind distinguishes traffic endpoints.
type EndpointKind int

// Endpoint kinds.
const (
	// EndCore is a processor core network interface.
	EndCore EndpointKind = iota + 1
	// EndMemChannel is one DRAM channel of a memory stack.
	EndMemChannel
)

// String returns the endpoint kind name.
func (k EndpointKind) String() string {
	switch k {
	case EndCore:
		return "core"
	case EndMemChannel:
		return "mem-channel"
	default:
		return fmt.Sprintf("endpoint(%d)", int(k))
	}
}

// Endpoint is a traffic source/sink attached to a switch local port.
type Endpoint struct {
	ID            sim.EndpointID
	Switch        sim.SwitchID
	Kind          EndpointKind
	Chip          int // -1 for memory channels
	Stack         int // -1 for cores
	Channel       int // -1 for cores
	LocalLatency  int
	LocalPJPerBit float64
}

// Side places a memory stack on the left or right flank of the chip array
// (stacks are "mounted on both sides of the processing chip array", paper
// §IV.A).
type Side int

// Stack placement sides.
const (
	SideLeft Side = iota + 1
	SideRight
)

// Stack describes one in-package stacked-DRAM memory module: a base logic
// die carrying the network interface (and, in the wireless architecture,
// a WI) under Layers DRAM layers joined by through-silicon vias (TSVs).
// The paper (§IV) fixes four layers and four channels per stack. Data
// movement inside a stack is the same in every architecture, so only the
// TSV crossing from the logic die to a channel's layer is modeled: channel
// ch sits on layer 1 + ch mod Layers, and its endpoint's latency and
// energy scale with that layer (see memoryStacks).
type Stack struct {
	Index    int  // global stack index
	Side     Side // flank of the chip array
	Row      int  // chip-grid row the stack faces
	Layers   int  // DRAM layers above the logic die
	Channels int  // independent channels
}

// Graph is the complete topology description.
type Graph struct {
	Cfg       config.Config
	Nodes     []Node
	Edges     []Edge
	Endpoints []Endpoint
	Stacks    []Stack

	// WISwitches lists the host switch of each WI; the slice order is the
	// WI numbering used by the MAC turn sequence.
	WISwitches []sim.SwitchID

	// Cores and MemChannels index Endpoints by role for traffic generation.
	Cores       []sim.EndpointID
	MemChannels []sim.EndpointID
}

// SwitchCount returns the number of switches.
func (g *Graph) SwitchCount() int { return len(g.Nodes) }

// EndpointCount returns the number of endpoints.
func (g *Graph) EndpointCount() int { return len(g.Endpoints) }

// HasWireless reports whether the topology deploys wireless interfaces.
func (g *Graph) HasWireless() bool { return len(g.WISwitches) > 0 }

// Neighbors returns, for every switch, the list of (edge index) adjacencies.
// The returned slices are freshly allocated.
func (g *Graph) Neighbors() [][]int {
	adj := make([][]int, len(g.Nodes))
	for i, e := range g.Edges {
		adj[e.A] = append(adj[e.A], i)
		adj[e.B] = append(adj[e.B], i)
	}
	return adj
}

// Other returns the far end of edge e from switch s.
func (e Edge) Other(s sim.SwitchID) sim.SwitchID {
	if e.A == s {
		return e.B
	}
	return e.A
}
