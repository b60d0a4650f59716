package wimc

import (
	"fmt"
	"math"

	"wimc/internal/spec"
	"wimc/internal/store"
)

// SeedStats aggregates key metrics over repeated runs with different seeds,
// reporting mean and sample standard deviation — use it to put error bars
// on any experiment.
type SeedStats struct {
	Runs int `json:"runs"`

	MeanLatency float64 `json:"mean_latency_cycles"`
	StdLatency  float64 `json:"std_latency_cycles"`

	MeanBandwidthPerCore float64 `json:"mean_bandwidth_per_core_gbps"`
	StdBandwidthPerCore  float64 `json:"std_bandwidth_per_core_gbps"`

	MeanPacketEnergyNJ float64 `json:"mean_packet_energy_nj"`
	StdPacketEnergyNJ  float64 `json:"std_packet_energy_nj"`

	Results []*Result `json:"results"`
}

// RunSeeds runs the system once per seed and aggregates the results. The
// seeds run concurrently across the machine's cores; aggregation order is
// the input seed order, so the statistics are deterministic.
func RunSeeds(cfg Config, traffic TrafficSpec, seeds []uint64) (*SeedStats, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("wimc: RunSeeds needs at least one seed")
	}
	pts := make([]spec.Point, len(seeds))
	for i, seed := range seeds {
		c := cfg
		c.Seed = seed
		pts[i] = spec.Point{Config: c, Traffic: traffic}
	}
	rs, _, err := store.RunPoints(nil, 0, pts, nil)
	if err != nil {
		return nil, fmt.Errorf("wimc: %w", err)
	}
	st := &SeedStats{Runs: len(seeds)}
	var lat, bw, en []float64
	for _, r := range rs {
		st.Results = append(st.Results, r)
		lat = append(lat, r.AvgLatency)
		bw = append(bw, r.BandwidthPerCoreGbps)
		en = append(en, r.AvgPacketEnergyNJ)
	}
	st.MeanLatency, st.StdLatency = meanStd(lat)
	st.MeanBandwidthPerCore, st.StdBandwidthPerCore = meanStd(bw)
	st.MeanPacketEnergyNJ, st.StdPacketEnergyNJ = meanStd(en)
	return st, nil
}

// Seeds returns n consecutive seeds starting from first (convenience for
// RunSeeds).
func Seeds(first uint64, n int) []uint64 {
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, first+uint64(i))
	}
	return out
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}
