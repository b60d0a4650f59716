package wimc

import (
	"fmt"

	"wimc/internal/config"
	"wimc/internal/engine"
	"wimc/internal/exp"
	"wimc/internal/spec"
)

// LoadPoint is one sample of a latency-versus-load sweep.
type LoadPoint struct {
	Load   float64 `json:"load"` // offered packets/core/cycle
	Result *Result `json:"result"`
}

// LoadSweep runs the system at each offered load and returns the results in
// order (the paper's Fig. 3 methodology: average packet latency versus
// injection load). The loads run concurrently across the machine's cores;
// results are deterministic and ordered regardless of parallelism (see
// internal/exp for the contract).
//
// Deprecated: LoadSweep is a thin wrapper over Sweep with a single "load"
// axis (byte-identical to its pre-spec implementation; the equivalence
// test pins it). New code should build a Spec — it composes with other
// axes, serializes, and caches under wimcd.
func LoadSweep(cfg Config, traffic TrafficSpec, loads []float64) ([]LoadPoint, error) {
	if len(loads) == 0 {
		return nil, fmt.Errorf("wimc: load sweep needs at least one load")
	}
	axis := Axis{Name: "load"}
	for _, l := range loads {
		axis.Points = append(axis.Points,
			spec.TrafficPoint(fmt.Sprintf("load=%v", l), map[string]any{"rate": l}))
	}
	sp, err := Sweep(&Spec{Name: "loadsweep", Config: cfg, Traffic: traffic, Axes: []Axis{axis}})
	if err != nil {
		return nil, err
	}
	out := make([]LoadPoint, len(loads))
	for i, l := range loads {
		out[i] = LoadPoint{Load: l, Result: sp[i].Result}
	}
	return out, nil
}

// Saturate runs the system at maximum load (rate 1.0) and returns the
// result; BandwidthPerCoreGbps is then the peak achievable bandwidth per
// core in the paper's sense ("maximum sustainable data rate in bits
// successfully routed per core per second at saturation with maximum
// load").
func Saturate(cfg Config, traffic TrafficSpec) (*Result, error) {
	t := traffic
	t.Rate = 1.0
	return Run(cfg, t)
}

// Gain compares an architecture against a baseline, returning the paper's
// percentage-gain metrics: bandwidth gain (higher is better), packet-energy
// gain (reduction), and packet-latency gain (reduction).
type Gain struct {
	Name            string  `json:"name"`
	BandwidthPct    float64 `json:"bandwidth_gain_pct"`
	PacketEnergyPct float64 `json:"packet_energy_gain_pct"`
	LatencyPct      float64 `json:"latency_gain_pct"`

	System   *Result `json:"system"`
	Baseline *Result `json:"baseline"`
}

// GainOver computes percentage gains of sys over base.
func GainOver(sys, base *Result) Gain {
	g := Gain{Name: sys.Name, System: sys, Baseline: base}
	if base.BandwidthPerCoreGbps > 0 {
		g.BandwidthPct = 100 * (sys.BandwidthPerCoreGbps - base.BandwidthPerCoreGbps) /
			base.BandwidthPerCoreGbps
	}
	if base.AvgPacketEnergyNJ > 0 {
		g.PacketEnergyPct = 100 * (base.AvgPacketEnergyNJ - sys.AvgPacketEnergyNJ) /
			base.AvgPacketEnergyNJ
	}
	if base.AvgLatency > 0 {
		g.LatencyPct = 100 * (base.AvgLatency - sys.AvgLatency) / base.AvgLatency
	}
	return g
}

// CompareAtSaturation runs every configuration at maximum load under the
// same workload and returns the results in input order (Fig. 2
// methodology). The configurations run concurrently across the machine's
// cores with deterministic, ordered results.
func CompareAtSaturation(cfgs []Config, traffic TrafficSpec) ([]*Result, error) {
	t := traffic
	t.Rate = 1.0
	ps := make([]engine.Params, len(cfgs))
	for i, c := range cfgs {
		ps[i] = engine.Params{Cfg: c, Traffic: t}
	}
	rs, idx, err := exp.RunIndexed(0, ps)
	if err != nil {
		return nil, fmt.Errorf("wimc: %s: %w", cfgs[idx].Name, err)
	}
	return rs, nil
}

// ScalePoint is one (system size, architecture) sample of a scale sweep.
type ScalePoint struct {
	Chips  int          `json:"chips"`
	Stacks int          `json:"stacks"`
	Arch   Architecture `json:"arch"`
	Result *Result      `json:"result"`
}

// ScaleSweep runs every (chips, arch) combination at saturation under the
// given workload and returns the samples in sweep order (sizes outer,
// architectures inner) — throughput and energy versus system size, the
// workload the paper's own evaluation (at most 8 chips) never reached.
// Each chip count becomes an XCYM preset with DefaultStacks(chips) memory
// stacks; modify returns from XCYM directly for other geometries. All runs
// fan out across the machine's cores with deterministic, ordered results.
//
// Deprecated: ScaleSweep is a thin wrapper over Sweep with one "system"
// axis enumerating the (chips, arch) grid as full-configuration patches
// (byte-identical to its pre-spec implementation; the equivalence test
// pins it). New code should build a Spec.
func ScaleSweep(sizes []int, archs []Architecture, traffic TrafficSpec) ([]ScalePoint, error) {
	if len(sizes) == 0 || len(archs) == 0 {
		return nil, fmt.Errorf("wimc: scale sweep needs at least one size and one architecture")
	}
	t := traffic
	t.Rate = 1.0
	axis := Axis{Name: "system"}
	var pts []ScalePoint
	for _, chips := range sizes {
		for _, arch := range archs {
			cfg, err := XCYM(chips, DefaultStacks(chips), arch)
			if err != nil {
				return nil, fmt.Errorf("wimc: scale sweep: %w", err)
			}
			pts = append(pts, ScalePoint{Chips: chips, Stacks: cfg.MemStacks, Arch: arch})
			axis.Points = append(axis.Points, spec.ConfigPoint(cfg.Name, cfg))
		}
	}
	sp, err := Sweep(&Spec{Name: "scalesweep", Config: Default(), Traffic: t, Axes: []Axis{axis}})
	if err != nil {
		return nil, err
	}
	for i := range pts {
		pts[i].Result = sp[i].Result
	}
	return pts, nil
}

// DefaultStacks returns the memory-stack count the XCYM presets pair with
// a chip count: the paper's 4 stacks up to 8 chips, proportional scaling
// (one stack per chip, rounded up to even) beyond.
func DefaultStacks(chips int) int { return config.DefaultStacks(chips) }

// ChannelPoint is one (system size, sub-channel count) sample of a channel
// sweep.
type ChannelPoint struct {
	Chips    int               `json:"chips"`
	Stacks   int               `json:"stacks"`
	Channels int               `json:"channels"`
	Assign   ChannelAssignment `json:"channel_assignment"`
	Result   *Result           `json:"result"`
}

// ChannelSweep runs the exclusive wireless channel model at saturation for
// every (chips, K sub-channels) combination under the given assignment and
// workload, returning samples in sweep order (sizes outer, channel counts
// inner). It measures how much of the wireless bandwidth wall spatial
// frequency reuse (or static partitioning) recovers: each of the K
// orthogonal mm-wave sub-channels runs its own MAC turn sequence at the
// transceiver rate, so aggregate capacity — and control/awake overhead —
// scales with K. Use AssignSpatialReuse to group WIs by package zone or
// AssignStaticPartition to interleave them; K = 1 reproduces the single
// shared medium exactly. All runs fan out across the machine's cores with
// deterministic, ordered results.
//
// Unless traffic.PacketFlits is set, packets are sized to one receive
// buffer (BufferDepth flits) so a transfer completes within a single MAC
// turn: with the default 64-flit packets a transfer needs four turns of
// its source WI, and at large sizes one turn rotation exceeds any
// practical measurement window — delivered bandwidth would read ~zero for
// every K alike.
//
// Deprecated: ChannelSweep is a thin wrapper over Sweep with a "system" ×
// "K" axis grid (byte-identical to its pre-spec implementation; the
// equivalence test pins it). New code should build a Spec.
func ChannelSweep(sizes, channelCounts []int, assign ChannelAssignment, traffic TrafficSpec) ([]ChannelPoint, error) {
	if len(sizes) == 0 || len(channelCounts) == 0 {
		return nil, fmt.Errorf("wimc: channel sweep needs at least one size and one channel count")
	}
	t := traffic
	t.Rate = 1.0
	sysAxis := Axis{Name: "system"}
	for _, chips := range sizes {
		cfg, err := XCYM(chips, DefaultStacks(chips), ArchWireless)
		if err != nil {
			return nil, fmt.Errorf("wimc: channel sweep: %w", err)
		}
		cfg.Channel = ChannelExclusive
		cfg.ChannelAssign = assign
		var trafficPatch any
		if t.PacketFlits == 0 {
			// One rx reservation per packet (see doc comment above).
			trafficPatch = map[string]any{"packet_flits": cfg.BufferDepth}
		}
		sysAxis.Points = append(sysAxis.Points, spec.PatchPoint(cfg.Name, cfg, trafficPatch))
	}
	kAxis := Axis{Name: "K"}
	for _, k := range channelCounts {
		kAxis.Points = append(kAxis.Points,
			spec.ConfigPoint(fmt.Sprintf("K=%d", k), map[string]any{"wireless_channels": k}))
	}
	sp, err := Sweep(&Spec{Name: "channelsweep", Config: Default(), Traffic: t, Axes: []Axis{sysAxis, kAxis}})
	if err != nil {
		return nil, err
	}
	var pts []ChannelPoint
	i := 0
	for _, chips := range sizes {
		for _, k := range channelCounts {
			pts = append(pts, ChannelPoint{
				Chips: chips, Stacks: sp[i].Config.MemStacks,
				Channels: k, Assign: assign, Result: sp[i].Result,
			})
			i++
		}
	}
	return pts, nil
}

// HybridPoint is one (system size, sub-channel count, route selection)
// sample of a hybrid sweep.
type HybridPoint struct {
	Chips    int         `json:"chips"`
	Stacks   int         `json:"stacks"`
	Channels int         `json:"channels"`
	Select   RouteSelect `json:"route_select"`
	Result   *Result     `json:"result"`
}

// HybridSweep runs the hybrid architecture (interposer wiring plus the
// K-sub-channel exclusive wireless overlay, skip-empty arbitration) at
// saturation for every (chips, K, route selection) combination, returning
// samples in sweep order (sizes outer, channel counts middle, then
// static before adaptive). It answers how the hybrid behaves at scale and
// what injection-time load-aware fabric selection buys: static selection
// pins every packet to the full-graph shortest-path table (the pre-class
// behavior), adaptive selection spills wireless-bound packets onto the
// interposer while the transmitting WI is saturated and pulls them back
// as it drains. K = 1 uses the single shared medium; larger K uses
// spatial reuse. Packets default to one receive-buffer reservation per
// transfer for the channel-sweep reason (see ChannelSweep). All runs fan
// out across the machine's cores with deterministic, ordered results.
//
// Deprecated: HybridSweep is a thin wrapper over Sweep with a "system" ×
// "K" × "route_select" axis grid (byte-identical to its pre-spec
// implementation; the equivalence test pins it). New code should build a
// Spec.
func HybridSweep(sizes, channelCounts []int, traffic TrafficSpec) ([]HybridPoint, error) {
	if len(sizes) == 0 || len(channelCounts) == 0 {
		return nil, fmt.Errorf("wimc: hybrid sweep needs at least one size and one channel count")
	}
	t := traffic
	t.Rate = 1.0
	sysAxis := Axis{Name: "system"}
	for _, chips := range sizes {
		cfg, err := XCYM(chips, DefaultStacks(chips), ArchHybrid)
		if err != nil {
			return nil, fmt.Errorf("wimc: hybrid sweep: %w", err)
		}
		cfg.Channel = ChannelExclusive
		cfg.MACPolicyMode = PolicySkipEmpty
		var trafficPatch any
		if t.PacketFlits == 0 {
			// One rx reservation per packet (see ChannelSweep).
			trafficPatch = map[string]any{"packet_flits": cfg.BufferDepth}
		}
		sysAxis.Points = append(sysAxis.Points, spec.PatchPoint(cfg.Name, cfg, trafficPatch))
	}
	kAxis := Axis{Name: "K"}
	for _, k := range channelCounts {
		assign := AssignSpatialReuse
		if k == 1 {
			assign = AssignSingle
		}
		kAxis.Points = append(kAxis.Points,
			spec.ConfigPoint(fmt.Sprintf("K=%d", k),
				map[string]any{"wireless_channels": k, "channel_assignment": assign}))
	}
	selAxis := Axis{Name: "route_select"}
	for _, sel := range []RouteSelect{SelectStatic, SelectAdaptive} {
		selAxis.Points = append(selAxis.Points,
			spec.ConfigPoint(string(sel), map[string]any{"route_select": sel}))
	}
	sp, err := Sweep(&Spec{Name: "hybridsweep", Config: Default(), Traffic: t,
		Axes: []Axis{sysAxis, kAxis, selAxis}})
	if err != nil {
		return nil, err
	}
	var pts []HybridPoint
	i := 0
	for _, chips := range sizes {
		for _, k := range channelCounts {
			for _, sel := range []RouteSelect{SelectStatic, SelectAdaptive} {
				pts = append(pts, HybridPoint{
					Chips: chips, Stacks: sp[i].Config.MemStacks,
					Channels: k, Select: sel, Result: sp[i].Result,
				})
				i++
			}
		}
	}
	return pts, nil
}

// PolicyPoint is one (system size, arbitration policy) sample of a policy
// sweep.
type PolicyPoint struct {
	Chips    int       `json:"chips"`
	Stacks   int       `json:"stacks"`
	Channels int       `json:"channels"`
	Policy   MACPolicy `json:"mac_policy"`
	Result   *Result   `json:"result"`
}

// PolicySweep runs the exclusive wireless channel model at saturation for
// every (chips, MAC arbitration policy) combination on k sub-channels
// under the spatial-reuse assignment, returning samples in sweep order
// (sizes outer, policies inner). It measures what the work-conserving
// arbitration policies recover of the turn-rotation wall: unlike
// ChannelSweep, packets keep their configured full size (64 flits by
// default), so a transfer needs NumFlits/BufferDepth receive-window-
// bounded turns of its source WI under the default rotation — the regime
// where skip-empty turn queues, drain-aware announcements and weighted
// schedules differ. All runs fan out across the machine's cores with
// deterministic, ordered results.
//
// Deprecated: PolicySweep is a thin wrapper over Sweep with a "system" ×
// "mac_policy" axis grid (byte-identical to its pre-spec implementation;
// the equivalence test pins it). New code should build a Spec.
func PolicySweep(sizes []int, k int, policies []MACPolicy, traffic TrafficSpec) ([]PolicyPoint, error) {
	if len(sizes) == 0 || len(policies) == 0 {
		return nil, fmt.Errorf("wimc: policy sweep needs at least one size and one policy")
	}
	t := traffic
	t.Rate = 1.0
	sysAxis := Axis{Name: "system"}
	for _, chips := range sizes {
		cfg, err := XCYM(chips, DefaultStacks(chips), ArchWireless)
		if err != nil {
			return nil, fmt.Errorf("wimc: policy sweep: %w", err)
		}
		cfg.Channel = ChannelExclusive
		cfg.ChannelAssign = AssignSpatialReuse
		cfg.WirelessChannels = k
		sysAxis.Points = append(sysAxis.Points, spec.ConfigPoint(cfg.Name, cfg))
	}
	polAxis := Axis{Name: "mac_policy"}
	for _, pol := range policies {
		polAxis.Points = append(polAxis.Points,
			spec.ConfigPoint(string(pol), map[string]any{"mac_policy": pol}))
	}
	sp, err := Sweep(&Spec{Name: "policysweep", Config: Default(), Traffic: t,
		Axes: []Axis{sysAxis, polAxis}})
	if err != nil {
		return nil, err
	}
	var pts []PolicyPoint
	i := 0
	for _, chips := range sizes {
		for _, pol := range policies {
			pts = append(pts, PolicyPoint{
				Chips: chips, Stacks: sp[i].Config.MemStacks,
				Channels: k, Policy: pol, Result: sp[i].Result,
			})
			i++
		}
	}
	return pts, nil
}
