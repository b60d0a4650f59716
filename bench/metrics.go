package main

import (
	"math"

	"wimc/internal/engine"
)

// metricValue is one reported number. A timing is the median of N
// samples, named by Stat; Tail is the highest percentile with at least ten
// samples beyond it, when N allows one.
type metricValue struct {
	Name      string  `json:"name"`
	Unit      string  `json:"unit"`
	Value     float64 `json:"value"`
	Stat      string  `json:"stat,omitempty"`
	N         int     `json:"n"`
	Tail      string  `json:"tail,omitempty"`
	TailValue float64 `json:"tail_value,omitempty"`
	// Samples are a timing's raw values, for the -out report.
	Samples []float64 `json:"samples,omitempty"`
}

// timing reports the median of v.
func timing(name, unit string, v []float64) metricValue {
	m := metricValue{Name: name, Unit: unit, Value: median(v), Stat: "p50", N: len(v), Samples: v}
	m.Tail, m.TailValue, _ = tail(v)
	return m
}

// ratio returns a/b, or 0 when b is 0, so no metric is NaN or infinite.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) || math.IsInf(a, 0) {
		return 0
	}
	return a / b
}

// meanResult averages f over the pass's simulated results.
func meanResult(rs []*engine.Result, f func(*engine.Result) float64) float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r)
	}
	return mean(v)
}

// endToEnd returns the metrics an untraced pass reports.
func endToEnd(p *pass) []metricValue {
	rs := p.results
	sim := func(name, unit string, f func(*engine.Result) float64) metricValue {
		return metricValue{Name: name, Unit: unit, Value: meanResult(rs, f), N: len(rs)}
	}
	return []metricValue{
		timing("sim_cycles_per_s", "cycles/s", p.cyclesPerS),
		timing("setup_s", "s", p.setup),
		timing("heap_live_mb", "MB", p.heap),
		timing("sweep_cold_s", "s", p.cold),
		// Each warm sample is already measured against the reference op
		// (see refOp).
		timing("sweep_warm_s", "s", p.warm),
		sim("sim_bw_per_core_gbps", "Gbps", func(r *engine.Result) float64 { return r.BandwidthPerCoreGbps }),
		sim("sim_pkt_energy_nj", "nJ", func(r *engine.Result) float64 { return r.AvgPacketEnergyNJ }),
		sim("sim_latency_cycles", "cycles", func(r *engine.Result) float64 { return r.AvgDeliveredLatency }),
	}
}

// layerTimings are the per-layer timings sampled by a traced pass, each
// reported as its median.
var layerTimings = []struct{ name, unit string }{
	{"config.validate_us", "us"},
	{"topo.build_ms", "ms"},
	{"route.build_classes_ms", "ms"},
	{"route.cdg_check_ms", "ms"},
	{"engine.wire_ms", "ms"},
	{"spec.parse_us", "us"},
	{"spec.expand_us", "us"},
	{"spec.hash_us", "us"},
	{"store.point_key_us", "us"},
	{"store.get_us", "us"},
	{"store.put_us", "us"},
	{"daemon.submit_ms", "ms"},
	{"daemon.results_ms", "ms"},
}

// profileMetrics attribute host CPU time inside Run to functions by name:
// each is the CPU time of the profile samples whose stack holds one of the
// functions, per stepped cycle.
var profileMetrics = []struct {
	name  string
	funcs []string
}{
	{"noc.switch_sast_ns", []string{"wimc/internal/noc.(*Switch).TickSAST"}},
	{"noc.switch_va_ns", []string{"wimc/internal/noc.(*Switch).TickVA"}},
	{"noc.switch_rc_ns", []string{"wimc/internal/noc.(*Switch).TickRC"}},
	{"noc.link_deliver_ns", []string{"wimc/internal/noc.(*Link).Deliver",
		"wimc/internal/noc.(*Link).DeliverFlitHalf", "wimc/internal/noc.(*Link).DeliverCreditHalf"}},
	{"noc.endpoint_tick_ns", []string{"wimc/internal/noc.(*Endpoint).Tick"}},
	{"core.fabric_launch_ns", []string{"wimc/internal/core.(*Fabric).Launch"}},
	{"core.fabric_deliver_ns", []string{"wimc/internal/core.(*Fabric).Deliver"}},
	{"traffic.next_for_ns", []string{"wimc/internal/engine.(*Engine).generate"}},
	{"engine.horizon_ns", []string{"wimc/internal/engine.(*Engine).quiescent",
		"wimc/internal/engine.(*Engine).horizon"}},
	{"engine.replay_ns", []string{"wimc/internal/engine.(*Engine).replayFabricOps",
		"wimc/internal/engine.(*Engine).replayEndpointEvents"}},
}

// linkClasses and energyClasses are the Result map keys reported per class.
var (
	linkClasses   = []string{"mesh-link", "interposer-link", "wide-io", "wireless"}
	energyClasses = []string{"switch", "mesh-link", "interposer-link", "serial-io", "wide-io",
		"tsv", "local-ni", "wireless", "static"}
)

// profileNS is the CPU time per stepped cycle of the samples whose stack
// holds one of funcs.
func (p *pass) profileNS(funcs []string) float64 {
	if p.prof == nil {
		return 0
	}
	col := p.prof.valueIndex("cpu/nanoseconds")
	if col < 0 {
		return 0
	}
	want := make(map[string]bool, len(funcs))
	for _, f := range funcs {
		want[f] = true
	}
	ns := p.prof.cumulative(col, func(fn string) bool { return want[fn] })
	return ratio(float64(ns), float64(p.stepped))
}

// perLayer returns the metrics a traced pass reports; base is the untraced
// pass of the same run, the reference for trace_overhead_pct.
func perLayer(base, p *pass) []metricValue {
	var out []metricValue
	for _, l := range layerTimings {
		out = append(out, timing(l.name, l.unit, p.layers[l.name]))
	}
	rs := p.results
	n := len(rs)
	add := func(name, unit string, v float64) {
		out = append(out, metricValue{Name: name, Unit: unit, Value: v, N: n})
	}
	avg := func(f func(*engine.Result) float64) float64 { return meanResult(rs, f) }
	var gen, ref, cycles, skipped float64
	for _, r := range rs {
		gen += float64(r.GeneratedPackets)
		ref += float64(r.RefusedPackets)
		cycles += float64(r.Cycles)
		skipped += float64(r.IdleCyclesSkipped)
	}

	for _, m := range profileMetrics {
		add(m.name, "ns", p.profileNS(m.funcs))
	}
	add("noc.refused_ratio", "ratio", ratio(ref, gen))
	add("noc.avg_hops", "hops", avg(func(r *engine.Result) float64 { return r.AvgHops }))
	add("noc.net_latency_cycles", "cycles", avg(func(r *engine.Result) float64 { return r.AvgNetLatency }))
	add("noc.queue_latency_cycles", "cycles", avg(func(r *engine.Result) float64 { return r.AvgQueueLatency }))
	for _, c := range linkClasses {
		add("noc.link_util."+c, "ratio", avg(func(r *engine.Result) float64 { return r.LinkUtilization[c] }))
	}
	add("core.control_packets", "count", avg(func(r *engine.Result) float64 { return float64(r.ControlPackets) }))
	add("core.wi_awake_fraction", "ratio", avg(func(r *engine.Result) float64 { return r.WIAwakeFraction }))
	add("core.wi_max_tx_depth", "flits", avg(func(r *engine.Result) float64 { return float64(r.WIMaxTxDepth) }))
	add("traffic.generated_packets", "count", avg(func(r *engine.Result) float64 { return float64(r.GeneratedPackets) }))
	add("engine.skip_ratio", "ratio", ratio(skipped, cycles))
	add("engine.ns_per_stepped_cycle", "ns", ratio(p.runs.wallNS, float64(p.runs.stepped)))
	add("engine.shard_speedup", "x", p.shardSpeedup)
	add("engine.allocs_per_cycle", "count", ratio(float64(p.runs.mallocs), float64(p.runs.cycles)))
	add("engine.alloc_bytes_per_cycle", "B", ratio(float64(p.runs.bytes), float64(p.runs.cycles)))
	add("engine.gc_cycles", "count", ratio(float64(p.runs.gcs), float64(p.runs.n)))
	for _, c := range energyClasses {
		add("energy."+c+"_pj", "pJ", avg(func(r *engine.Result) float64 { return r.EnergyBreakdown[c] }))
	}
	add("exp.pool_efficiency", "ratio", median(p.poolEff))
	add("trace_overhead_pct", "%", 100*(ratio(median(base.cyclesPerS), median(p.cyclesPerS))-1))
	return out
}
