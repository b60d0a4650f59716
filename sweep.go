package wimc

import (
	"fmt"

	"wimc/internal/config"
	"wimc/internal/spec"
	"wimc/internal/store"
)

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
	pts := make([]spec.Point, len(cfgs))
	for i, c := range cfgs {
		pts[i] = spec.Point{Config: c, Traffic: t}
	}
	rs, _, err := store.RunPoints(nil, 0, pts, nil)
	if err != nil {
		return nil, fmt.Errorf("wimc: %w", err)
	}
	return rs, nil
}

// DefaultStacks returns the memory-stack count the XCYM presets pair with
// a chip count: the paper's 4 stacks up to 8 chips, proportional scaling
// (one stack per chip, rounded up to even) beyond.
func DefaultStacks(chips int) int { return config.DefaultStacks(chips) }
