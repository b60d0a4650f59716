// Command wimcbench regenerates every figure of the paper's evaluation
// plus the ablations and extension experiments of internal/figures,
// printing text tables and optionally writing CSV files. Each figure's
// independent simulation runs are fanned out across the machine's cores by
// default (tables are byte-identical to a sequential run); per-figure wall
// times go to stderr.
//
// Usage:
//
//	wimcbench [-fig all|fig2|fig3|fig4|fig5|fig6|mac|channel|routing|sleep|density|hybrid|readrt|scale|channels|policies|hybridsweep|faults]
//	          [-quick] [-seed N] [-csv DIR] [-workers N] [-shards N]
//	          [-scale-sizes 4,16,64] [-channel-ks 1,2,4,8]
//	          [-channel-assign spatial-reuse|static-partition] [-mac-policies rotate,skip-empty,...]
//	          [-spec FILE.json] [-store DIR]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -spec runs a canonical experiment spec (see internal/spec and
// examples/specs) instead of a named figure; -store serves and fills a
// content-addressed result cache shared with the wimcd service, so
// re-running a spec (or figure) whose results exist costs zero engine
// runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"wimc/internal/config"
	"wimc/internal/figures"
	"wimc/internal/spec"
	"wimc/internal/store"
)

// runSpec is the -spec path: parse, run (through the cache when -store is
// set), print the generic table.
func runSpec(file string, opts figures.Opts, csvDir string) int {
	data, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wimcbench: -spec: %v\n", err)
		return 2
	}
	sp, err := spec.Parse(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wimcbench: -spec: %v\n", err)
		return 2
	}
	start := time.Now()
	t, err := figures.FromSpec(sp, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wimcbench: spec: %v\n", err)
		return 1
	}
	fmt.Println(t.Text())
	fmt.Fprintf(os.Stderr, "wimcbench: spec     %8.3fs\n", time.Since(start).Seconds())
	if csvDir != "" {
		if err := writeCSV(csvDir, t); err != nil {
			fmt.Fprintf(os.Stderr, "wimcbench: spec: %v\n", err)
			return 1
		}
	}
	return 0
}

// main defers to run so the profiling defers flush on every exit path
// (os.Exit would skip them).
func main() {
	os.Exit(run())
}

func run() int {
	var (
		fig           = flag.String("fig", "all", "experiment to run (all, fig2..fig6, mac, channel, routing, sleep, density, hybrid, readrt, scale, channels, policies, hybridsweep, faults)")
		quick         = flag.Bool("quick", false, "shortened simulation windows")
		seed          = flag.Uint64("seed", 0, "override RNG seed (0 = default)")
		csv           = flag.String("csv", "", "directory to write CSV files into")
		workers       = flag.Int("workers", 0, "worker-pool size for independent runs (0 = GOMAXPROCS, 1 = sequential; results identical either way)")
		scaleSizes    = flag.String("scale-sizes", "", "comma-separated chip counts for the scale/channel/policy/hybrid sweeps (default 4,8,16,32,64; quick 4,16,64)")
		channelKs     = flag.String("channel-ks", "", "comma-separated sub-channel counts for the channel sweep (default 1,2,4,8) and the hybrid sweep (default 1,4,8)")
		channelAssign = flag.String("channel-assign", "", "WI-to-sub-channel assignment for the channel sweep (spatial-reuse, static-partition; default spatial-reuse)")
		macPolicies   = flag.String("mac-policies", "", "comma-separated arbitration policies for the policy sweep (default rotate,skip-empty,drain-aware,weighted)")
		shards        = flag.Int("shards", 0, "worker shards per simulation tick (0 = serial engine; results are byte-identical at any shard count)")
		specFile      = flag.String("spec", "", "run a canonical experiment spec file instead of a named figure")
		storeDir      = flag.String("store", "", "content-addressed result cache directory (cached points are served, fresh ones stored)")
		cpuProfile    = flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file (go tool pprof)")
		memProfile    = flag.String("memprofile", "", "write an allocation profile at exit to this file (go tool pprof)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wimcbench: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "wimcbench: -cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "wimcbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "wimcbench: -memprofile: %v\n", err)
			}
		}()
	}

	sizes, err := parseSizes(*scaleSizes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wimcbench: -scale-sizes: %v\n", err)
		return 2
	}
	ks, err := parseSizes(*channelKs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wimcbench: -channel-ks: %v\n", err)
		return 2
	}
	policies, err := parsePolicies(*macPolicies)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wimcbench: -mac-policies: %v\n", err)
		return 2
	}
	switch config.ChannelAssignment(*channelAssign) {
	case "", config.AssignSpatialReuse, config.AssignStaticPartition:
	default:
		fmt.Fprintf(os.Stderr, "wimcbench: -channel-assign: unknown assignment %q (want %s or %s)\n",
			*channelAssign, config.AssignSpatialReuse, config.AssignStaticPartition)
		return 2
	}

	ids := figures.Experiments()
	if *fig != "all" {
		ids = []string{*fig}
	}
	opts := figures.Opts{
		Quick: *quick, Seed: *seed, Workers: *workers,
		ScaleSizes: sizes, ChannelKs: ks,
		ChannelAssign: config.ChannelAssignment(*channelAssign),
		Policies:      policies,
		Shards:        *shards,
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wimcbench: -store: %v\n", err)
			return 2
		}
		opts.Store = st
	}
	if *specFile != "" {
		return runSpec(*specFile, opts, *csv)
	}
	total := time.Duration(0)
	for _, id := range ids {
		start := time.Now()
		t, err := figures.Run(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wimcbench: %s: %v\n", id, err)
			return 1
		}
		elapsed := time.Since(start)
		total += elapsed
		fmt.Println(t.Text())
		fmt.Fprintf(os.Stderr, "wimcbench: %-8s %8.3fs\n", id, elapsed.Seconds())
		if *csv != "" {
			if err := writeCSV(*csv, t); err != nil {
				fmt.Fprintf(os.Stderr, "wimcbench: %s: %v\n", id, err)
				return 1
			}
		}
	}
	if len(ids) > 1 {
		fmt.Fprintf(os.Stderr, "wimcbench: total    %8.3fs\n", total.Seconds())
	}
	return 0
}

func parsePolicies(s string) ([]config.MACPolicy, error) {
	if s == "" {
		return nil, nil
	}
	var policies []config.MACPolicy
	for _, part := range strings.Split(s, ",") {
		pol := config.MACPolicy(strings.TrimSpace(part))
		switch pol {
		case config.PolicyRotate, config.PolicySkipEmpty, config.PolicyDrainAware, config.PolicyWeighted:
			policies = append(policies, pol)
		default:
			return nil, fmt.Errorf("unknown policy %q", part)
		}
	}
	return policies, nil
}

func parseSizes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad chip count %q", part)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

func writeCSV(dir string, t *figures.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, t.ID+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}
