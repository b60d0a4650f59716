// Package config defines the complete, serializable configuration of a wimc
// simulation: package geometry (chips, cores, memory stacks), router
// microarchitecture, physical-layer constants for every link technology,
// the wireless channel/MAC variants, routing mode, and run control.
//
// Default values follow the experimental setup of Shamim et al., SOCC 2017.
package config

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// Architecture selects the inter-chip interconnection technology
// (paper §IV.A naming: XCYM (Substrate) / (Interposer) / (Wireless)).
type Architecture string

// Supported architectures.
const (
	ArchSubstrate  Architecture = "substrate"
	ArchInterposer Architecture = "interposer"
	ArchWireless   Architecture = "wireless"
	// ArchHybrid overlays the wireless fabric on the interposer system —
	// the natural extension of the paper's design: wires for neighbor
	// bandwidth, wireless single hops for distance.
	ArchHybrid Architecture = "hybrid"
)

// RoutingMode selects how forwarding tables are computed (see the
// internal/route package doc).
type RoutingMode string

// Supported routing modes.
const (
	// RouteShortest computes true per-source shortest paths (Dijkstra with
	// X-before-Y tie-breaking). Default: matches the paper's one-hop claims.
	RouteShortest RoutingMode = "shortest"
	// RouteTree routes all traffic along a single shortest-path tree rooted
	// at a (seeded-random) switch — the paper's literal deadlock argument.
	RouteTree RoutingMode = "tree"
)

// ChannelMode selects the wireless channel model (see the internal/core
// package doc).
type ChannelMode string

// Supported channel models.
const (
	// ChannelCrossbar models WI pairs as direct links with per-WI egress and
	// ingress serialization (one flit per cycle each) — the model implied by
	// the paper's reported bandwidth and latency.
	ChannelCrossbar ChannelMode = "crossbar"
	// ChannelExclusive models the PHY as literally described: a single
	// shared medium at WirelessGbps granted to one WI at a time by the MAC.
	ChannelExclusive ChannelMode = "exclusive"
)

// ChannelAssignment selects how wireless interfaces are mapped onto the
// orthogonal mm-wave sub-channels of the exclusive channel model. With K =
// WirelessChannels sub-channels, each group of WIs runs its own MAC turn
// sequence (control-packet or token) on its own channel, so up to K
// transmissions proceed concurrently; receivers are multi-band (after the
// multi-channel transceivers of Chang et al. [6]) and accept flits from any
// channel.
type ChannelAssignment string

// Supported channel assignments.
const (
	// AssignSingle is the single shared medium: every WI takes turns on one
	// channel. It requires WirelessChannels == 1 on the exclusive model —
	// a higher channel count would be silently dead — and is the only
	// assignment meaningful for the crossbar model (where WirelessChannels
	// is already the concurrency cap).
	AssignSingle ChannelAssignment = "single"
	// AssignStaticPartition splits the WIs into K groups round-robin by WI
	// index (chip-major order), interleaving neighbors across channels.
	AssignStaticPartition ChannelAssignment = "static-partition"
	// AssignSpatialReuse divides the package grid into K near-square zones
	// and groups each zone's WIs on one sub-channel, so far-apart WI groups
	// transmit concurrently while close neighbors take turns.
	AssignSpatialReuse ChannelAssignment = "spatial-reuse"
)

// MACMode selects the wireless medium-access protocol.
type MACMode string

// Supported MAC protocols.
const (
	// MACControlPacket is the paper's proposal: per-turn broadcast control
	// packets carrying (DestWI, PktID, NumFlits) 3-tuples, allowing partial
	// packet transmission.
	MACControlPacket MACMode = "control-packet"
	// MACToken is the prior-work baseline [7]: the turn holder may transmit
	// only whole packets; otherwise it passes the token.
	MACToken MACMode = "token"
)

// MACPolicy selects how each exclusive sub-channel arbitrates turns among
// its member WIs. The paper's MACs rotate round-robin over every member,
// so idle WIs burn control/token turns and backlogged WIs wait out full
// rotations; the work-conserving policies spend channel time only where
// traffic exists.
type MACPolicy string

// Supported arbitration policies (exclusive channel model).
const (
	// PolicyRotate is the paper's fixed round-robin rotation over all
	// member WIs, idle or not — the default, byte-identical to the
	// pre-policy fabric (the engine's legacy-equivalence regressions pin
	// it).
	PolicyRotate MACPolicy = "rotate"
	// PolicySkipEmpty keeps an O(1) doubly-linked active-turn queue per
	// sub-channel: a WI is enqueued when its first TX flit arrives and
	// only queued WIs are granted turns, so idle members are skipped
	// without scanning and an empty channel spends nothing.
	PolicySkipEmpty MACPolicy = "skip-empty"
	// PolicyDrainAware extends skip-empty for the control-packet MAC:
	// announcements size receive reservations against the live drain of
	// the destination, so a turn holder may announce a packet's remaining
	// flits beyond the instantaneous receive window (and beyond its own TX
	// buffer) while the receiver keeps draining — full-size packets finish
	// in one turn instead of one turn per buffer's worth. Unreserved
	// announcements reserve lazily at transmit time; a turn that stalls
	// (receiver stopped draining) is cancelled after a bounded wait.
	PolicyDrainAware MACPolicy = "drain-aware"
	// PolicyWeighted extends skip-empty with deficit round-robin: a
	// granted WI accrues a transmission budget proportional to its TX
	// backlog and keeps consecutive turns until the budget is spent, so
	// channel time tracks backlog. Budgets are capped by the TX buffer
	// capacity, which bounds the wait of every other queued member (the
	// starvation-bound test in internal/core proves the window).
	PolicyWeighted MACPolicy = "weighted"
)

// FaultKind names one kind of scheduled wireless fault.
type FaultKind string

// Supported fault kinds.
const (
	// FaultWIFail is a permanent fail-stop failure of one wireless
	// interface at the scheduled cycle: the WI stops transmitting and
	// receiving new packets, is excised from its sub-channel's turn
	// arbitration, and traffic that would use it fails over to the
	// wired-only route class. Requires the hybrid architecture (a pure
	// wireless package has no failover underlay).
	FaultWIFail FaultKind = "wi-fail"
	// FaultOutage is a transient outage of one exclusive-model
	// sub-channel: for Duration cycles starting at the scheduled cycle the
	// sub-channel transmits nothing; its turn state freezes and resumes
	// when the window ends.
	FaultOutage FaultKind = "outage"
)

// FaultEvent is one entry of the deterministic fault schedule.
type FaultEvent struct {
	Cycle int64     `json:"cycle"` // simulation cycle the fault takes effect
	Kind  FaultKind `json:"kind"`  //
	// WI is the failed wireless interface index (wi-fail), in fabric
	// AddWI order: chip WIs chip-major, then memory-stack WIs.
	WI int `json:"wi,omitempty"`
	// SubChannel is the affected exclusive-model sub-channel (outage).
	SubChannel int `json:"sub_channel,omitempty"`
	// Duration is the outage length in cycles (outage only).
	Duration int64 `json:"duration,omitempty"`
}

// RouteSelect selects how the route class of each packet is chosen at
// injection time on a hybrid package, where every distant pair has two
// genuine media choices (the wireless overlay's single hop vs the
// interposer underlay).
type RouteSelect string

// Supported route selection modes.
const (
	// SelectStatic always uses the full-graph shortest-path table — the
	// single-table behavior, byte-identical to the pre-class simulator
	// (the default; an empty value means static).
	SelectStatic RouteSelect = "static"
	// SelectAdaptive consults live load signals at packet injection —
	// source-WI TX backlog, MAC turn-queue depth and wired-port credit
	// occupancy — and spills wireless-bound packets onto the wired-only
	// class table while the transmitting WI is saturated, pulling them
	// back when it drains (hysteresis-bounded per WI). Requires the hybrid
	// architecture with shortest-path routing.
	SelectAdaptive RouteSelect = "adaptive"
)

// Config is the complete description of one simulated system.
//
// Every exported field must be read by Validate — wimclint's deadknob
// analyzer enforces this, so a new knob cannot ship dead or unvalidated
// (see internal/lint). Fields with no invalid value carry a justified
// //lint:deadknob-exempt comment instead.
type Config struct {
	//lint:deadknob-exempt free-form experiment label; every string is valid and nothing reads it back
	Name string       `json:"name"`
	Arch Architecture `json:"arch"`

	// Package geometry.
	ChipsX     int     `json:"chips_x"`      // chip-grid columns
	ChipsY     int     `json:"chips_y"`      // chip-grid rows
	CoresX     int     `json:"cores_x"`      // per-chip mesh columns
	CoresY     int     `json:"cores_y"`      // per-chip mesh rows
	MemStacks  int     `json:"mem_stacks"`   // total stacks, split across both sides
	ChipEdgeMM float64 `json:"chip_edge_mm"` // die edge length

	// Memory stack.
	MemLayers   int `json:"mem_layers"`   // stacked DRAM layers
	MemChannels int `json:"mem_channels"` // channels per stack
	// Read-transaction model (used when the workload issues reads).
	MemServiceCycles int `json:"mem_service_cycles"` // DRAM access latency
	MemRequestFlits  int `json:"mem_request_flits"`  // read request size
	MemReplyFlits    int `json:"mem_reply_flits"`    // data reply size

	// Router microarchitecture.
	VCs            int     `json:"vcs"`             // virtual channels per port
	BufferDepth    int     `json:"buffer_depth"`    // flits per VC buffer
	FlitBits       int     `json:"flit_bits"`       //
	PacketFlits    int     `json:"packet_flits"`    // synthetic-traffic packet size
	ClockGHz       float64 `json:"clock_ghz"`       //
	PipelineStages int     `json:"pipeline_stages"` // informational; router is 3-stage
	InjectionQueue int     `json:"injection_queue"` // NI source-queue capacity (packets)

	// Wireless deployment.
	CoresPerWI int `json:"cores_per_wi"` // wireless deployment density

	// Wireline physical layer.
	MeshLatency          int     `json:"mesh_latency_cycles"`
	MeshPJPerBit         float64 `json:"mesh_pj_per_bit"`
	SerialGbps           float64 `json:"serial_gbps"`
	SerialLatency        int     `json:"serial_latency_cycles"`
	SerialPJPerBit       float64 `json:"serial_pj_per_bit"`
	InterposerGbps       float64 `json:"interposer_gbps"`
	InterposerLatency    int     `json:"interposer_latency_cycles"`
	InterposerPJPerBit   float64 `json:"interposer_pj_per_bit"`
	WideIOGbps           float64 `json:"wide_io_gbps"`
	WideIOLatency        int     `json:"wide_io_latency_cycles"`
	WideIOPJPerBit       float64 `json:"wide_io_pj_per_bit"`
	TSVLatency           int     `json:"tsv_latency_cycles"`
	TSVPJPerBitPerLayer  float64 `json:"tsv_pj_per_bit_per_layer"`
	LocalPJPerBit        float64 `json:"local_pj_per_bit"`
	SwitchPJPerBit       float64 `json:"switch_pj_per_bit"`
	SwitchStaticMW       float64 `json:"switch_static_mw"`
	InterposerBoundaryFr float64 `json:"interposer_boundary_fraction"` // fraction of facing boundary switch pairs wired (µbump budget); 1.0 = all

	// Wireless physical layer and protocol.
	WirelessChannels  int               `json:"wireless_channels"`    // orthogonal mm-wave sub-channels (concurrency budget)
	WirelessGbps      float64           `json:"wireless_gbps"`        // per-transceiver sustained rate
	WirelessPJPerBit  float64           `json:"wireless_pj_per_bit"`  //
	WirelessLatency   int               `json:"wireless_latency"`     // extra hop cycles beyond serialization
	WirelessBER       float64           `json:"wireless_ber"`         // bit error rate (retransmission model)
	Channel           ChannelMode       `json:"channel_mode"`         //
	MAC               MACMode           `json:"mac_mode"`             //
	ChannelAssign     ChannelAssignment `json:"channel_assignment"`   // WI-to-sub-channel mapping (exclusive model)
	MACPolicyMode     MACPolicy         `json:"mac_policy"`           // turn arbitration policy (exclusive model)
	ControlFlits      int               `json:"control_flits"`        // control packet length in flit-times
	TXBufferFlits     int               `json:"tx_buffer_flits"`      // WI transmit buffer depth
	SleepEnabled      bool              `json:"sleep_enabled"`        // sleepy transceivers [17]
	WIRxActiveMW      float64           `json:"wi_rx_active_mw"`      // receiver awake power
	WISleepMW         float64           `json:"wi_sleep_mw"`          // power-gated receiver power
	WirelessHopWeight int               `json:"wireless_hop_weight"`  // routing cost of one wireless hop
	CrossbarEgressGbp float64           `json:"crossbar_egress_gbps"` // 0 = full port rate
	PostWirelessVCs   int               `json:"post_wireless_vcs"`    // VC class size for post-wireless travel

	// Fault model (deterministic, seeded). All knobs default off; a run
	// with WirelessPER == 0 and an empty FaultSchedule is byte-identical
	// to the fault-free engine.
	WirelessPER        float64      `json:"wireless_per"`         // distance-scaled packet error probability at max grid distance
	WirelessRetryLimit int          `json:"wireless_retry_limit"` // head-flit retry budget before a packet is dropped (0 = default)
	FaultMaxPacketAge  int64        `json:"fault_max_packet_age"` // liveness watchdog bound on injected-packet age (0 = default)
	FaultSchedule      []FaultEvent `json:"fault_schedule,omitempty"`

	// Routing.
	Routing RoutingMode `json:"routing_mode"`
	// RouteSelectMode picks the per-injection route class on hybrid
	// packages; empty means static. Validate rejects "adaptive" wherever
	// there is no class choice to make (non-hybrid architectures, tree
	// routing) rather than ignoring the knob.
	RouteSelectMode RouteSelect `json:"route_select"`

	// Run control.
	//lint:deadknob-exempt every 64-bit value is a valid seed; determinism is per-seed, not seed-range
	Seed          uint64 `json:"seed"`
	WarmupCycles  int64  `json:"warmup_cycles"`
	MeasureCycles int64  `json:"measure_cycles"`
	DrainCycles   int64  `json:"drain_cycles"` // post-measurement drain window
	// EngineShards splits one run across that many worker goroutines: the
	// chip grid is partitioned into contiguous row bands and every shard
	// ticks its own switches, links and endpoints each cycle, synchronized
	// at per-cycle barriers with single-writer mailboxes on the boundary
	// links. Results are byte-identical at every shard count (the engine's
	// determinism matrix pins this), so the count is no part of a point's
	// store key (spec.PointKey): a sharded run is served from a serial
	// run's cache entry and the other way round. 0 or 1 selects the serial
	// engine; the engine clamps the count to the global mesh-row count.
	EngineShards int `json:"engine_shards,omitempty"`
}

// Default returns the baseline configuration shared by every experiment in
// the paper (§IV): 8 VCs, 16-flit buffers, 64-flit packets, 32-bit flits,
// 2.5 GHz, 65 nm-derived energy constants. Geometry defaults to 4C4M.
func Default() Config {
	return Config{
		Name:       "4C4M",
		Arch:       ArchWireless,
		ChipsX:     2,
		ChipsY:     2,
		CoresX:     4,
		CoresY:     4,
		MemStacks:  4,
		ChipEdgeMM: 10,

		MemLayers:   4,
		MemChannels: 4,

		MemServiceCycles: 40,
		MemRequestFlits:  8,
		MemReplyFlits:    64,

		VCs:            8,
		BufferDepth:    16,
		FlitBits:       32,
		PacketFlits:    64,
		ClockGHz:       2.5,
		PipelineStages: 3,
		InjectionQueue: 16,

		CoresPerWI: 16,

		MeshLatency:          1,
		MeshPJPerBit:         0.375,
		SerialGbps:           15,
		SerialLatency:        4,
		SerialPJPerBit:       5.0,
		InterposerGbps:       12,
		InterposerLatency:    2,
		InterposerPJPerBit:   5.2,
		WideIOGbps:           128,
		WideIOLatency:        2,
		WideIOPJPerBit:       6.5,
		TSVLatency:           1,
		TSVPJPerBitPerLayer:  0.05,
		LocalPJPerBit:        0.1,
		SwitchPJPerBit:       2.2,
		SwitchStaticMW:       2.0,
		InterposerBoundaryFr: 1.0,

		WirelessChannels:  5,
		WirelessGbps:      16,
		WirelessPJPerBit:  2.3,
		WirelessLatency:   1,
		WirelessBER:       0,
		Channel:           ChannelCrossbar,
		MAC:               MACControlPacket,
		ChannelAssign:     AssignSingle,
		MACPolicyMode:     PolicyRotate,
		ControlFlits:      1,
		TXBufferFlits:     16,
		SleepEnabled:      true,
		WIRxActiveMW:      0.9,
		WISleepMW:         0.05,
		WirelessHopWeight: 4,
		CrossbarEgressGbp: 0,
		PostWirelessVCs:   2,

		Routing:         RouteShortest,
		RouteSelectMode: SelectStatic,

		Seed:          1,
		WarmupCycles:  1000,
		MeasureCycles: 9000,
		DrainCycles:   0,
	}
}

// XCYM returns the preset geometry for chips processing chips and stacks
// in-package memory stacks under the given architecture.
//
// The paper's standard configurations (1, 4 or 8 chips; 64 cores total)
// keep their published geometry. Any other chip count generalizes the 4C4M
// design point to the multichip-accelerator scale the paper never reached:
// chips are arranged in the most-square grid that factors the count, each
// chip is the paper's 4x4-core mesh with one wireless interface, and stacks
// (still even, flanking both sides) typically scale with the chip count —
// XCYM(32, 32, arch) is a 1:1 compute:memory package of 512 cores.
func XCYM(chips, stacks int, arch Architecture) (Config, error) {
	c := Default()
	c.Arch = arch
	c.MemStacks = stacks
	switch chips {
	case 1:
		c.ChipsX, c.ChipsY = 1, 1
		c.CoresX, c.CoresY = 8, 8
		c.CoresPerWI = 16 // 4 WIs on the single chip
	case 4:
		c.ChipsX, c.ChipsY = 2, 2
		c.CoresX, c.CoresY = 4, 4
		c.CoresPerWI = 16 // 1 WI per chip
	case 8:
		c.ChipsX, c.ChipsY = 4, 2
		c.CoresX, c.CoresY = 2, 4
		c.CoresPerWI = 8 // 1 WI per chip (paper: density raised to keep connectivity)
	default:
		if chips < 1 {
			return Config{}, fmt.Errorf("config: no XCYM preset for %d chips (want >= 1)", chips)
		}
		c.ChipsX, c.ChipsY = chipGrid(chips)
		c.CoresX, c.CoresY = 4, 4
		c.CoresPerWI = 16 // 1 WI per chip
	}
	// Small packages deploy fewer WIs than the default sub-channel budget;
	// presets always request a concurrency the fabric can realize (Validate
	// rejects wireless_channels beyond the WI count).
	if n := c.TotalWIs(); n > 0 && c.WirelessChannels > n {
		c.WirelessChannels = n
	}
	c.Name = fmt.Sprintf("%dC%dM (%s)", chips, stacks, titleASCII(string(arch)))
	return c, nil
}

// chipGrid returns the most-square (x, y) factorization of n with x >= y —
// the chip-grid shape of generalized XCYM presets. The paper's own 8-chip
// preset follows the same rule (4x2).
func chipGrid(n int) (x, y int) {
	x, y = n, 1
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			x, y = n/d, d
		}
	}
	return x, y
}

// DefaultStacks returns the memory-stack count the XCYM presets pair with a
// chip count: the paper's 4 stacks for its 1/4/8-chip systems, and
// proportional scaling (one stack per chip, rounded up to even — stacks
// flank both sides of the package) beyond them.
func DefaultStacks(chips int) int {
	if chips <= 8 {
		return 4
	}
	return chips + chips%2
}

// titleASCII upper-cases the first byte of an ASCII word (architecture names
// are ASCII; avoids the deprecated strings.Title).
func titleASCII(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

// MustXCYM is XCYM for known-good literal arguments; it panics on error and
// is intended for tests and examples.
func MustXCYM(chips, stacks int, arch Architecture) Config {
	c, err := XCYM(chips, stacks, arch)
	if err != nil {
		panic(err)
	}
	return c
}

// Chips returns the total chip count.
func (c Config) Chips() int { return c.ChipsX * c.ChipsY }

// CoresPerChip returns cores per chip.
func (c Config) CoresPerChip() int { return c.CoresX * c.CoresY }

// Cores returns the total core count.
func (c Config) Cores() int { return c.Chips() * c.CoresPerChip() }

// WIsPerChip returns the number of wireless interfaces deployed per chip.
func (c Config) WIsPerChip() int {
	if c.CoresPerWI <= 0 {
		return 0
	}
	n := c.CoresPerChip() / c.CoresPerWI
	if n < 1 {
		n = 1
	}
	return n
}

// TotalWIs returns the number of wireless interfaces the topology deploys:
// one per core cluster on every chip plus one on every memory stack's logic
// die. It is 0 for the wired architectures.
func (c Config) TotalWIs() int {
	if c.Arch != ArchWireless && c.Arch != ArchHybrid {
		return 0
	}
	return c.Chips()*c.WIsPerChip() + c.MemStacks
}

// FaultModelActive reports whether any fault-injection machinery is
// enabled: a nonzero packet error probability or a non-empty fault
// schedule. Every fault hook in the runtime is gated on this, so an
// inactive fault model costs nothing and changes nothing.
func (c Config) FaultModelActive() bool {
	return c.WirelessPER > 0 || len(c.FaultSchedule) > 0
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	switch c.Arch {
	case ArchSubstrate, ArchInterposer, ArchWireless, ArchHybrid:
	default:
		return fmt.Errorf("config: unknown architecture %q", c.Arch)
	}
	switch c.Routing {
	case RouteShortest, RouteTree:
	default:
		return fmt.Errorf("config: unknown routing mode %q", c.Routing)
	}
	switch c.RouteSelectMode {
	case "", SelectStatic:
	case SelectAdaptive:
		// The knob must never be silently dead (the PR 3 class of bug):
		// adaptive selection chooses between per-fabric-class tables, which
		// exist only on the hybrid architecture under shortest-path routing.
		if c.Arch != ArchHybrid {
			return fmt.Errorf("config: route_select %q requires the hybrid architecture (a %s system has no fabric-class choice to make)",
				SelectAdaptive, c.Arch)
		}
		if c.Routing != RouteShortest {
			return fmt.Errorf("config: route_select %q requires routing_mode %q (tree routing builds a single table)",
				SelectAdaptive, RouteShortest)
		}
	default:
		return fmt.Errorf("config: unknown route_select %q", c.RouteSelectMode)
	}
	switch c.Channel {
	case ChannelCrossbar, ChannelExclusive:
	default:
		return fmt.Errorf("config: unknown channel mode %q", c.Channel)
	}
	switch c.MAC {
	case MACControlPacket, MACToken:
	default:
		return fmt.Errorf("config: unknown MAC mode %q", c.MAC)
	}
	switch c.ChannelAssign {
	case AssignSingle, AssignStaticPartition, AssignSpatialReuse:
	default:
		return fmt.Errorf("config: unknown channel assignment %q", c.ChannelAssign)
	}
	switch c.MACPolicyMode {
	case PolicyRotate, PolicySkipEmpty, PolicyDrainAware, PolicyWeighted:
	default:
		return fmt.Errorf("config: unknown MAC policy %q", c.MACPolicyMode)
	}
	type bound struct {
		name string
		v    int
		min  int
	}
	for _, b := range []bound{
		{"chips_x", c.ChipsX, 1},
		{"chips_y", c.ChipsY, 1},
		{"cores_x", c.CoresX, 1},
		{"cores_y", c.CoresY, 1},
		{"mem_stacks", c.MemStacks, 0},
		{"mem_layers", c.MemLayers, 1},
		{"mem_channels", c.MemChannels, 1},
		{"mem_service_cycles", c.MemServiceCycles, 0},
		{"mem_request_flits", c.MemRequestFlits, 1},
		{"mem_reply_flits", c.MemReplyFlits, 1},
		{"vcs", c.VCs, 1},
		{"buffer_depth", c.BufferDepth, 1},
		{"flit_bits", c.FlitBits, 1},
		{"packet_flits", c.PacketFlits, 1},
		{"injection_queue", c.InjectionQueue, 1},
		{"control_flits", c.ControlFlits, 1},
		{"tx_buffer_flits", c.TXBufferFlits, 1},
		{"mesh_latency_cycles", c.MeshLatency, 1},
		{"wireless_hop_weight", c.WirelessHopWeight, 1},
		{"pipeline_stages", c.PipelineStages, 1},
		{"serial_latency_cycles", c.SerialLatency, 1},
		{"interposer_latency_cycles", c.InterposerLatency, 1},
		{"wide_io_latency_cycles", c.WideIOLatency, 1},
		{"tsv_latency_cycles", c.TSVLatency, 0},
	} {
		if b.v < b.min {
			return fmt.Errorf("config: %s must be >= %d, got %d", b.name, b.min, b.v)
		}
	}
	// A switch keeps each output VC's downstream credits in 16 bits, and
	// these two seed them (VC buffers and WI transmit buffers): a larger
	// value would wrap and leave the port without a credit to send on.
	for _, b := range []struct {
		name string
		v    int
	}{
		{"buffer_depth", c.BufferDepth},
		{"tx_buffer_flits", c.TXBufferFlits},
	} {
		if b.v > math.MaxInt16 {
			return fmt.Errorf("config: %s must be <= %d (switch credit counters are 16-bit), got %d",
				b.name, math.MaxInt16, b.v)
		}
	}
	// NaN compares false against every bound below, so non-finite floats
	// would otherwise sail through the range checks (found by FuzzValidate
	// for the first four; deadknob surfaced that the remaining physical
	// constants had no checks at all — a NaN pJ/bit silently poisons every
	// energy figure).
	for _, fk := range []struct {
		name string
		v    float64
	}{
		{"clock_ghz", c.ClockGHz},
		{"wireless_gbps", c.WirelessGbps},
		{"wireless_ber", c.WirelessBER},
		{"wireless_per", c.WirelessPER},
		{"chip_edge_mm", c.ChipEdgeMM},
		{"mesh_pj_per_bit", c.MeshPJPerBit},
		{"serial_gbps", c.SerialGbps},
		{"serial_pj_per_bit", c.SerialPJPerBit},
		{"interposer_gbps", c.InterposerGbps},
		{"interposer_pj_per_bit", c.InterposerPJPerBit},
		{"wide_io_gbps", c.WideIOGbps},
		{"wide_io_pj_per_bit", c.WideIOPJPerBit},
		{"tsv_pj_per_bit_per_layer", c.TSVPJPerBitPerLayer},
		{"local_pj_per_bit", c.LocalPJPerBit},
		{"switch_pj_per_bit", c.SwitchPJPerBit},
		{"switch_static_mw", c.SwitchStaticMW},
		{"interposer_boundary_fraction", c.InterposerBoundaryFr},
		{"wireless_pj_per_bit", c.WirelessPJPerBit},
		{"wi_rx_active_mw", c.WIRxActiveMW},
		{"wi_sleep_mw", c.WISleepMW},
		{"crossbar_egress_gbps", c.CrossbarEgressGbp},
	} {
		if math.IsNaN(fk.v) || math.IsInf(fk.v, 0) {
			return fmt.Errorf("config: %s must be finite, got %v", fk.name, fk.v)
		}
	}
	// Physical-layer constants (deadknob cleanup: these were settable but
	// never sanity-checked). Energy and power constants must be
	// non-negative; per-technology line rates must be positive. The chip
	// edge must be positive too, although nothing outside this package
	// reads it: WI placement picks the minimum-average-distance switch over
	// grid coordinates, and the fault model scales PER by squared grid
	// distance. It stays a Config field until the next engine.Version
	// bump, because removing it changes every store key and spec hash.
	for _, fk := range []struct {
		name string
		v    float64
	}{
		{"mesh_pj_per_bit", c.MeshPJPerBit},
		{"serial_pj_per_bit", c.SerialPJPerBit},
		{"interposer_pj_per_bit", c.InterposerPJPerBit},
		{"wide_io_pj_per_bit", c.WideIOPJPerBit},
		{"tsv_pj_per_bit_per_layer", c.TSVPJPerBitPerLayer},
		{"local_pj_per_bit", c.LocalPJPerBit},
		{"switch_pj_per_bit", c.SwitchPJPerBit},
		{"switch_static_mw", c.SwitchStaticMW},
		{"wireless_pj_per_bit", c.WirelessPJPerBit},
		{"wi_rx_active_mw", c.WIRxActiveMW},
		{"wi_sleep_mw", c.WISleepMW},
		{"crossbar_egress_gbps", c.CrossbarEgressGbp},
	} {
		if fk.v < 0 {
			return fmt.Errorf("config: %s must be >= 0, got %v", fk.name, fk.v)
		}
	}
	for _, fk := range []struct {
		name string
		v    float64
	}{
		{"chip_edge_mm", c.ChipEdgeMM},
		{"serial_gbps", c.SerialGbps},
		{"interposer_gbps", c.InterposerGbps},
		{"wide_io_gbps", c.WideIOGbps},
	} {
		if fk.v <= 0 {
			return fmt.Errorf("config: %s must be positive, got %v", fk.name, fk.v)
		}
	}
	if c.InterposerBoundaryFr <= 0 || c.InterposerBoundaryFr > 1 {
		// The topology builder used to clamp this silently; a budget outside
		// (0,1] is now rejected, not reinterpreted (the PR 3 rule).
		return fmt.Errorf("config: interposer_boundary_fraction must be in (0,1], got %v", c.InterposerBoundaryFr)
	}
	if c.SleepEnabled && c.WISleepMW > c.WIRxActiveMW {
		// Contradictory knob pair: power-gated receivers that burn more than
		// awake ones would make sleep mode silently pessimal.
		return fmt.Errorf("config: wi_sleep_mw (%v) exceeds wi_rx_active_mw (%v) with sleep_enabled: power-gating cannot cost more than staying awake", c.WISleepMW, c.WIRxActiveMW)
	}
	if c.ClockGHz <= 0 {
		return fmt.Errorf("config: clock_ghz must be positive, got %v", c.ClockGHz)
	}
	if c.VCs > 64 {
		return fmt.Errorf("config: vcs must be <= 64 (router VC bitmasks), got %d", c.VCs)
	}
	if c.MemStacks%2 != 0 && c.MemStacks != 0 {
		return fmt.Errorf("config: mem_stacks must be even (stacks flank both sides), got %d", c.MemStacks)
	}
	if c.Arch == ArchWireless || c.Arch == ArchHybrid {
		if c.CoresPerWI < 1 {
			return fmt.Errorf("config: cores_per_wi must be >= 1 for wireless, got %d", c.CoresPerWI)
		}
		if c.VCs < 2 {
			return fmt.Errorf("config: wireless requires vcs >= 2 (VC phase classes), got %d", c.VCs)
		}
		if c.PostWirelessVCs < 1 || c.PostWirelessVCs >= c.VCs {
			return fmt.Errorf("config: post_wireless_vcs must be in [1, vcs), got %d", c.PostWirelessVCs)
		}
		if c.WirelessChannels < 1 {
			return fmt.Errorf("config: wireless_channels must be >= 1, got %d", c.WirelessChannels)
		}
		if n := c.TotalWIs(); c.WirelessChannels > n {
			return fmt.Errorf("config: wireless_channels (%d) exceeds the %d deployed WIs: the fabric cannot realize that concurrency", c.WirelessChannels, n)
		}
		if c.WirelessLatency < 1 {
			return fmt.Errorf("config: wireless_latency must be >= 1 cycle, got %d", c.WirelessLatency)
		}
		if c.Channel == ChannelCrossbar && c.ChannelAssign != AssignSingle {
			return fmt.Errorf("config: channel_assignment %q applies only to the exclusive channel model (the crossbar honors wireless_channels directly)", c.ChannelAssign)
		}
		if c.Channel == ChannelExclusive && c.ChannelAssign == AssignSingle && c.WirelessChannels != 1 {
			return fmt.Errorf("config: wireless_channels = %d is dead on a single exclusive channel; set channel_assignment to %q or %q (or wireless_channels to 1)", c.WirelessChannels, AssignStaticPartition, AssignSpatialReuse)
		}
		if c.MACPolicyMode != PolicyRotate && c.Channel != ChannelExclusive {
			return fmt.Errorf("config: mac_policy %q applies only to the exclusive channel model (the crossbar has no turn schedule)", c.MACPolicyMode)
		}
		if c.MACPolicyMode == PolicyDrainAware && c.MAC != MACControlPacket {
			return fmt.Errorf("config: mac_policy %q requires the control-packet MAC (the token MAC has no announcements to size)", PolicyDrainAware)
		}
		if c.WirelessGbps <= 0 {
			return fmt.Errorf("config: wireless_gbps must be positive, got %v", c.WirelessGbps)
		}
		if c.WirelessBER < 0 || c.WirelessBER >= 1 {
			return fmt.Errorf("config: wireless_ber must be in [0,1), got %v", c.WirelessBER)
		}
		if c.MAC == MACToken && c.TXBufferFlits < c.PacketFlits {
			return fmt.Errorf("config: token MAC requires tx_buffer_flits >= packet_flits (%d < %d): whole packets only", c.TXBufferFlits, c.PacketFlits)
		}
	} else {
		if c.WirelessPER != 0 {
			return fmt.Errorf("config: wireless_per is dead on a %s system (no wireless medium to corrupt)", c.Arch)
		}
		if len(c.FaultSchedule) != 0 {
			return fmt.Errorf("config: fault_schedule is dead on a %s system (faults target the wireless fabric)", c.Arch)
		}
	}
	if c.WirelessPER < 0 || c.WirelessPER > 1 {
		return fmt.Errorf("config: wireless_per must be in [0,1], got %v", c.WirelessPER)
	}
	if c.WirelessRetryLimit < 0 {
		return fmt.Errorf("config: wireless_retry_limit must be >= 0, got %d", c.WirelessRetryLimit)
	}
	if c.FaultMaxPacketAge < 0 {
		return fmt.Errorf("config: fault_max_packet_age must be >= 0, got %d", c.FaultMaxPacketAge)
	}
	if !c.FaultModelActive() {
		// Dead knobs (the PR 3 class of bug): a retry budget or watchdog
		// bound with nothing to retry or watch would be silently ignored.
		if c.WirelessRetryLimit != 0 {
			return fmt.Errorf("config: wireless_retry_limit %d is dead without a fault model (set wireless_per or a fault_schedule)", c.WirelessRetryLimit)
		}
		if c.FaultMaxPacketAge != 0 {
			return fmt.Errorf("config: fault_max_packet_age %d is dead without a fault model (set wireless_per or a fault_schedule)", c.FaultMaxPacketAge)
		}
	}
	for i, ev := range c.FaultSchedule {
		if ev.Cycle < 0 {
			return fmt.Errorf("config: fault_schedule[%d]: cycle must be >= 0, got %d", i, ev.Cycle)
		}
		switch ev.Kind {
		case FaultWIFail:
			if c.Arch != ArchHybrid {
				return fmt.Errorf("config: fault_schedule[%d]: %q requires the hybrid architecture (a %s system has no wired class to fail over to)", i, FaultWIFail, c.Arch)
			}
			if c.Routing != RouteShortest {
				return fmt.Errorf("config: fault_schedule[%d]: %q requires routing_mode %q (tree routing builds no wired-only class table)", i, FaultWIFail, RouteShortest)
			}
			if n := c.TotalWIs(); ev.WI < 0 || ev.WI >= n {
				return fmt.Errorf("config: fault_schedule[%d]: wi %d out of range [0,%d)", i, ev.WI, n)
			}
		case FaultOutage:
			if c.Channel != ChannelExclusive {
				return fmt.Errorf("config: fault_schedule[%d]: %q applies only to the exclusive channel model (the crossbar has no sub-channels)", i, FaultOutage)
			}
			if ev.SubChannel < 0 || ev.SubChannel >= c.WirelessChannels {
				return fmt.Errorf("config: fault_schedule[%d]: sub_channel %d out of range [0,%d)", i, ev.SubChannel, c.WirelessChannels)
			}
			if ev.Duration < 1 {
				return fmt.Errorf("config: fault_schedule[%d]: outage duration must be >= 1 cycle, got %d", i, ev.Duration)
			}
		default:
			return fmt.Errorf("config: fault_schedule[%d]: unknown fault kind %q", i, ev.Kind)
		}
	}
	if c.WarmupCycles < 0 || c.MeasureCycles <= 0 || c.DrainCycles < 0 {
		return fmt.Errorf("config: run windows must be non-negative with measure_cycles > 0")
	}
	if c.EngineShards < 0 || c.EngineShards > 64 {
		return fmt.Errorf("config: engine_shards must be in [0,64], got %d", c.EngineShards)
	}
	if c.CoresPerChip()%max(1, c.CoresPerWI) != 0 && (c.Arch == ArchWireless || c.Arch == ArchHybrid) {
		return fmt.Errorf("config: cores_per_wi (%d) must divide cores per chip (%d)", c.CoresPerWI, c.CoresPerChip())
	}
	return nil
}

// MarshalPretty returns an indented JSON encoding of the configuration.
func (c Config) MarshalPretty() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// Parse decodes a JSON configuration, applying defaults for absent fields.
func Parse(data []byte) (Config, error) {
	c := Default()
	if err := json.Unmarshal(data, &c); err != nil {
		return Config{}, fmt.Errorf("config: parse: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}
