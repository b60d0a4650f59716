// Command wimcsim runs a single multichip simulation and prints the
// results.
//
// Usage:
//
//	wimcsim [-chips 4] [-stacks 0] [-arch wireless|interposer|substrate|hybrid]
//	        [-traffic uniform|hotspot|transpose|bit-complement|app]
//	        [-rate 0.002] [-mem 0.2] [-app canneal]
//	        [-cycles 10000] [-drain 100000] [-seed 1] [-shards 4] [-config file.json] [-json]
//	        [-trace packets.jsonl] [-every-cycle]
//
// Any chip count is accepted: 1/4/8 use the paper's geometries, other
// counts the generalized large-system presets (-stacks 0 scales stacks
// with the chip count).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"wimc"
)

func main() {
	var (
		chips   = flag.Int("chips", 4, "processing chips (1/4/8 = paper presets; others = generalized grids)")
		stacks  = flag.Int("stacks", 0, "memory stacks (0 = scale with chip count)")
		arch    = flag.String("arch", "wireless", "architecture: substrate, interposer, wireless, hybrid")
		traffic = flag.String("traffic", "uniform", "traffic kind: uniform, hotspot, transpose, bit-complement, app")
		rate    = flag.Float64("rate", 0.002, "injection rate (packets/core/cycle); 1.0 = saturation")
		mem     = flag.Float64("mem", 0.2, "memory-access fraction")
		hotspot = flag.Float64("hotspot", 0.2, "hotspot traffic fraction (hotspot kind)")
		app     = flag.String("app", "canneal", "application name (app kind)")
		cycles  = flag.Int64("cycles", 0, "override measurement cycles (0 = config default)")
		drain   = flag.Int64("drain", -1, "override drain cycles (-1 = config default); with fast-forward the run exits the window early once the network drains")
		seed    = flag.Uint64("seed", 0, "override RNG seed (0 = config default)")
		shards  = flag.Int("shards", 0, "worker shards per simulation tick (0 = serial engine; results are byte-identical at any shard count)")
		cfgFile = flag.String("config", "", "JSON configuration file (overrides -chips/-arch)")
		asJSON  = flag.Bool("json", false, "emit the full result as JSON")
		traceTo = flag.String("trace", "", "write a packet-level JSONL delivery trace to this file")
		everyCy = flag.Bool("every-cycle", false, "disable the event-horizon fast-forward and step every cycle (results are byte-identical either way)")
	)
	flag.Parse()

	cfg, err := buildConfig(*cfgFile, *chips, *stacks, *arch)
	if err != nil {
		fatal(err)
	}
	if *cycles > 0 {
		cfg.MeasureCycles = *cycles
	}
	if *drain >= 0 {
		cfg.DrainCycles = *drain
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *shards != 0 {
		cfg.EngineShards = *shards
	}

	spec := wimc.TrafficSpec{
		Kind:            wimc.TrafficKind(*traffic),
		Rate:            *rate,
		MemFraction:     *mem,
		HotspotFraction: *hotspot,
		App:             *app,
	}
	opts := wimc.Options{EveryCycle: *everyCy}
	var traceFile *os.File
	if *traceTo != "" {
		if traceFile, err = os.Create(*traceTo); err != nil {
			fatal(err)
		}
		defer traceFile.Close()
		opts.Trace = traceFile
	}
	sys, err := wimc.NewWithOptions(cfg, spec, opts)
	if err != nil {
		fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		fatal(err)
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			fatal(err)
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		return
	}
	printResult(res)
}

func buildConfig(path string, chips, stacks int, arch string) (wimc.Config, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return wimc.Config{}, err
		}
		return wimc.ParseConfig(data)
	}
	if stacks <= 0 {
		stacks = wimc.DefaultStacks(chips)
	}
	return wimc.XCYM(chips, stacks, wimc.Architecture(arch))
}

func printResult(r *wimc.Result) {
	fmt.Printf("%s: %d cores, %d cycles\n", r.Name, r.Cores, r.Cycles)
	fmt.Printf("  packets: generated=%d refused=%d injected=%d delivered=%d measured=%d\n",
		r.GeneratedPackets, r.RefusedPackets, r.InjectedPackets, r.DeliveredPackets, r.MeasuredPackets)
	fmt.Printf("  latency: avg=%.1f cycles (net %.1f + queue %.1f)  p99=%d  max=%d  hops=%.2f\n",
		r.AvgLatency, r.AvgNetLatency, r.AvgQueueLatency, r.P99Latency, r.MaxLatency, r.AvgHops)
	fmt.Printf("  throughput: %.3f Gbps/core (%.4f flits/core/cycle accepted)\n",
		r.BandwidthPerCoreGbps, r.AcceptedFlitsPerCore)
	fmt.Printf("  energy: %.1f nJ/packet (dynamic %.2f uJ, static %.2f uJ)\n",
		r.AvgPacketEnergyNJ, r.DynamicPJ/1e6, r.StaticPJ/1e6)
	keys := make([]string, 0, len(r.EnergyBreakdown))
	for k := range r.EnergyBreakdown {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("    %-16s %.2f uJ\n", k, r.EnergyBreakdown[k]/1e6)
	}
	if len(r.LinkUtilization) > 0 {
		fmt.Println("  link utilization:")
		ukeys := make([]string, 0, len(r.LinkUtilization))
		for k := range r.LinkUtilization {
			ukeys = append(ukeys, k)
		}
		sort.Strings(ukeys)
		for _, k := range ukeys {
			fmt.Printf("    %-16s %5.1f%%\n", k, 100*r.LinkUtilization[k])
		}
	}
	if r.ControlPackets > 0 || r.TokenPasses > 0 || r.WIMaxTxDepth > 0 {
		fmt.Printf("  wireless: control=%d token-passes=%d retransmits=%d maxTX=%d awake=%.2f\n",
			r.ControlPackets, r.TokenPasses, r.Retransmits, r.WIMaxTxDepth, r.WIAwakeFraction)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wimcsim:", err)
	os.Exit(1)
}
