// Package wimc is a cycle-accurate simulator and library for wireless
// multichip interconnection networks with in-package memory stacks,
// reproducing Shamim et al., "Energy-Efficient Wireless Interconnection
// Framework for Multichip Systems with In-package Memory Stacks"
// (IEEE SOCC 2017).
//
// A simulated system is a 2.5D package: a grid of multicore chips (each a
// mesh NoC of wormhole virtual-channel switches) flanked by stacked-DRAM
// memory modules. Three interconnection architectures are modeled:
//
//   - Substrate: chips joined by single high-speed serial links, memory by
//     128-bit wide I/O.
//   - Interposer: the mesh extended across chip boundaries through
//     µbump-limited interposer links (after Jerger et al.).
//   - Wireless: the paper's proposal — 60 GHz mm-wave transceivers on
//     selected switches (one per core cluster, placed at the
//     minimum-average-distance switch) and on every memory stack's logic
//     die, forming single-hop links between any two wireless interfaces,
//     arbitrated by a control-packet MAC that supports partial-packet
//     transmission and sleepy receivers.
//
// Quick start:
//
//	cfg := wimc.MustXCYM(4, 4, wimc.ArchWireless)
//	res, err := wimc.Run(cfg, wimc.TrafficSpec{
//		Kind:        wimc.TrafficUniform,
//		Rate:        0.002,
//		MemFraction: 0.2,
//	})
//	if err != nil { ... }
//	fmt.Println(res.AvgLatency, res.BandwidthPerCoreGbps, res.AvgPacketEnergyNJ)
//
// The repository README describes the modeled architectures and how to
// regenerate every figure of the paper; each internal package's doc comment
// records its modeling decisions.
package wimc

import (
	"io"

	"wimc/internal/config"
	"wimc/internal/engine"
)

// Config is the complete description of one simulated system. Obtain a
// baseline from Default or XCYM and override fields as needed; Validate
// reports inconsistencies.
type Config = config.Config

// Architecture selects the inter-chip interconnect technology.
type Architecture = config.Architecture

// Architectures. ArchHybrid (interposer wiring plus the wireless overlay)
// is an extension beyond the paper's three systems.
const (
	ArchSubstrate  = config.ArchSubstrate
	ArchInterposer = config.ArchInterposer
	ArchWireless   = config.ArchWireless
	ArchHybrid     = config.ArchHybrid
)

// RoutingMode selects forwarding-table construction.
type RoutingMode = config.RoutingMode

// Routing modes.
const (
	RouteShortest = config.RouteShortest
	RouteTree     = config.RouteTree
)

// ChannelMode selects the wireless channel model.
type ChannelMode = config.ChannelMode

// Channel models.
const (
	ChannelCrossbar  = config.ChannelCrossbar
	ChannelExclusive = config.ChannelExclusive
)

// ChannelAssignment selects how wireless interfaces map onto the
// orthogonal mm-wave sub-channels of the exclusive channel model.
type ChannelAssignment = config.ChannelAssignment

// Channel assignments. AssignSingle is the single shared medium (requires
// WirelessChannels == 1 on the exclusive model); AssignStaticPartition
// interleaves WIs across K sub-channels by index; AssignSpatialReuse
// groups WIs by package zone so far-apart groups transmit concurrently.
const (
	AssignSingle          = config.AssignSingle
	AssignStaticPartition = config.AssignStaticPartition
	AssignSpatialReuse    = config.AssignSpatialReuse
)

// MACMode selects the wireless medium-access protocol.
type MACMode = config.MACMode

// MAC protocols.
const (
	MACControlPacket = config.MACControlPacket
	MACToken         = config.MACToken
)

// MACPolicy selects how each exclusive sub-channel arbitrates turns among
// its member WIs.
type MACPolicy = config.MACPolicy

// MAC arbitration policies. PolicyRotate is the paper's fixed round-robin
// over every member (the default, byte-identical to the pre-policy
// fabric); PolicySkipEmpty grants turns from an O(1) active-turn queue so
// idle WIs are skipped; PolicyDrainAware additionally sizes control-packet
// announcements against the receiver's live drain so full-size packets
// finish in fewer turns; PolicyWeighted adds deficit round-robin turn
// budgets proportional to per-WI backlog, starvation-bounded.
const (
	PolicyRotate     = config.PolicyRotate
	PolicySkipEmpty  = config.PolicySkipEmpty
	PolicyDrainAware = config.PolicyDrainAware
	PolicyWeighted   = config.PolicyWeighted
)

// RouteSelect selects how each packet's route class is chosen at
// injection time on hybrid packages.
type RouteSelect = config.RouteSelect

// Route selection modes. SelectStatic (the default) routes every packet by
// the full-graph shortest-path table — byte-identical to the pre-class
// simulator; SelectAdaptive consults live load signals at injection
// (source-WI TX backlog, MAC turn-queue depth, wired-port credit
// occupancy) and spills wireless-bound packets onto the interposer while
// the transmitting WI is saturated, hysteresis-bounded per WI. Adaptive
// selection requires ArchHybrid with shortest-path routing
// (config.Validate rejects it anywhere else).
const (
	SelectStatic   = config.SelectStatic
	SelectAdaptive = config.SelectAdaptive
)

// FaultKind names one kind of deterministic fault-schedule event.
type FaultKind = config.FaultKind

// FaultEvent is one entry of Config.FaultSchedule: a permanent fail-stop
// WI death or a transient sub-channel outage window at an exact cycle.
// With Config.WirelessPER it arms the fault model (distance-scaled packet
// error probability, CRC/NACK retransmission under exponential backoff, a
// retry budget, wired-class failover on hybrids and an every-cycle
// liveness watchdog); a zero PER with an empty schedule runs the exact
// fault-free code path, byte-identical.
type FaultEvent = config.FaultEvent

// Fault-schedule event kinds.
const (
	FaultWIFail = config.FaultWIFail
	FaultOutage = config.FaultOutage
)

// TrafficKind selects the workload generator.
type TrafficKind = engine.TrafficKind

// Workload kinds.
const (
	TrafficUniform       = engine.TrafficUniform
	TrafficHotspot       = engine.TrafficHotspot
	TrafficTranspose     = engine.TrafficTranspose
	TrafficBitComplement = engine.TrafficBitComplement
	TrafficApp           = engine.TrafficApp
)

// TrafficSpec parameterizes the workload of a run.
type TrafficSpec = engine.TrafficSpec

// Result summarizes one simulation run.
type Result = engine.Result

// Default returns the paper's baseline configuration (4C4M wireless:
// 8 VCs, 16-flit buffers, 64-flit packets, 32-bit flits, 2.5 GHz).
func Default() Config { return config.Default() }

// XCYM returns a standard configuration of chips processing chips and
// stacks in-package memory stacks under the given architecture. Chip counts
// 1, 4 and 8 reproduce the paper's published geometries (64 cores total);
// any other count generalizes the 4C4M design point — a near-square grid of
// 4x4-core chips, one wireless interface per chip — to multichip-system
// scales the paper never evaluated (XCYM(64, 64, arch) is a 1024-core
// package). Large presets build through the sharded topology constructor
// and run under the active-set scheduler; see ScaleSweep for the
// throughput/energy-versus-size methodology.
func XCYM(chips, stacks int, arch Architecture) (Config, error) {
	return config.XCYM(chips, stacks, arch)
}

// MustXCYM is XCYM for known-good literal arguments; it panics on error.
func MustXCYM(chips, stacks int, arch Architecture) Config {
	return config.MustXCYM(chips, stacks, arch)
}

// ParseConfig decodes a JSON configuration, applying defaults for absent
// fields and validating the result.
func ParseConfig(data []byte) (Config, error) { return config.Parse(data) }

// System is an assembled simulation, ready to run once.
type System struct {
	eng *engine.Engine
}

// New assembles a system from a configuration and workload. It builds the
// topology, computes forwarding tables, verifies deadlock freedom of the
// routing function, and instantiates all switches, links, endpoints and
// (for the wireless architecture) the wireless fabric.
func New(cfg Config, traffic TrafficSpec) (*System, error) {
	eng, err := engine.New(engine.Params{Cfg: cfg, Traffic: traffic})
	if err != nil {
		return nil, err
	}
	return &System{eng: eng}, nil
}

// Run executes the configured warmup, measurement and drain windows and
// returns the run statistics. A System runs once; build a new one (or use
// the package-level Run) for further runs.
func (s *System) Run() (*Result, error) { return s.eng.Run() }

// Run assembles and runs a system in one call.
func Run(cfg Config, traffic TrafficSpec) (*Result, error) {
	return engine.Run(engine.Params{Cfg: cfg, Traffic: traffic})
}

// NewTraced is New with a packet-level delivery trace: one JSON line per
// delivered packet (id, endpoints, class, timing, hops, energy) is written
// to w during the run.
func NewTraced(cfg Config, traffic TrafficSpec, w io.Writer) (*System, error) {
	eng, err := engine.New(engine.Params{Cfg: cfg, Traffic: traffic, Trace: w})
	if err != nil {
		return nil, err
	}
	return &System{eng: eng}, nil
}

// Options are run options beyond the configuration and workload. The zero
// value is the default behavior of New.
type Options struct {
	// Trace, when non-nil, receives the packet-level delivery trace (one
	// JSON line per delivered packet), as in NewTraced.
	Trace io.Writer
	// EveryCycle disables the engine's event-horizon fast-forward and
	// steps every cycle of the run. Results are byte-identical either way
	// (the fast-forward only skips provably inert cycles; see the Result
	// idle_cycles_skipped field) — the switch exists as the validation
	// reference and for benchmarking the fast-forward itself.
	EveryCycle bool
}

// NewWithOptions is New with explicit run options.
func NewWithOptions(cfg Config, traffic TrafficSpec, o Options) (*System, error) {
	eng, err := engine.New(engine.Params{
		Cfg:        cfg,
		Traffic:    traffic,
		Trace:      o.Trace,
		EveryCycle: o.EveryCycle,
	})
	if err != nil {
		return nil, err
	}
	return &System{eng: eng}, nil
}
