package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"time"

	"wimc/internal/config"
	"wimc/internal/daemon"
	"wimc/internal/engine"
	"wimc/internal/route"
	"wimc/internal/spec"
	"wimc/internal/store"
	"wimc/internal/topo"
)

// workers is the parallelism of every layer the benchmark drives: topology
// and route construction, engine shards and the daemon's pool. main pins
// GOMAXPROCS to the same value so that hosts with more cores measure the
// same work.
const workers = 2

// A rep has two warm phases of warmFor each, in batches of warmBatch
// requests; a tiny run makes warmTiny requests a phase.
const (
	warmFor   = 250 * time.Millisecond
	warmBatch = 50
	warmTiny  = 2
)

// A warm request takes a fraction of a millisecond to a few milliseconds,
// and on a shared host the core it runs on switches between a fast and a
// slow state, up to twice as slow, every few tens of milliseconds, in
// proportions that drift from minute to minute. So each request is timed
// together with refOp, a fixed piece of formatting and allocation run
// right after it in the same host state, and its sample is its time over
// refOp's, in units of refSeconds: the median time of refOp on the 2-vCPU
// 2.1 GHz Xeon host the bounds were set on. A sample therefore reads about
// as the request would take there at a typical moment, and the host's
// state cancels out. refOp calls only the standard library, so a change to
// the repository cannot move it.
const refSeconds = 58e-6

var refSink int

func refOp() {
	for i := 0; i < 300; i++ {
		refSink += len(fmt.Sprintf("%d-%s-%x", i, "abcdef", i*7))
	}
}

// timeRefOp runs refOp once and returns how long it took.
func timeRefOp() time.Duration {
	t0 := time.Now()
	refOp()
	return time.Since(t0)
}

// A run cycles through its workload's few config seeds, drawn from a pool
// of poolSize. golden.json pins the digest of every pool seed, so every run
// checks its simulated results exactly, whatever its -seed.
const poolSize = 16

// runSeeds returns the k config seeds a run with -seed n cycles through:
// k(n-1)+1 .. kn, wrapped into 1..poolSize.
func runSeeds(n uint64, k int) []uint64 {
	s := make([]uint64, k)
	for j := range s {
		s[j] = 1 + ((n-1)*uint64(k)+uint64(j))%poolSize
	}
	return s
}

// simWorkload is one simulated system and traffic pattern.
type simWorkload struct {
	chips   int
	arch    config.Architecture
	shards  int
	traffic engine.TrafficSpec
	warmup  int64
	measure int64
	drain   int64
}

// workload is one benchmark input: an experiment spec per config seed,
// one point for a simulation workload, 24 for sweep_service. A run covers
// seeds config seeds, each at least once.
type workload struct {
	name  string
	seeds int
	sim   *simWorkload // nil for sweep_service
}

var saturation = engine.TrafficSpec{Kind: engine.TrafficUniform, Rate: 1.0, MemFraction: 0.2}

// workloads are listed in BENCHMARK.json order; bench/README.md says why
// each was chosen. A 64-chip rep simulates twice, in process and cold, for
// 6 to 10 s, so those runs cover two seeds rather than four to end near
// -seconds.
var workloads = []workload{
	{name: "sat64_wireless", seeds: 2, sim: &simWorkload{
		chips: 64, arch: config.ArchWireless, traffic: saturation, warmup: 500, measure: 4500}},
	{name: "sat64_interposer_shards2", seeds: 2, sim: &simWorkload{
		chips: 64, arch: config.ArchInterposer, shards: 2, traffic: saturation, warmup: 500, measure: 4500}},
	{name: "lowload16_drain", seeds: 4, sim: &simWorkload{
		chips: 16, arch: config.ArchWireless,
		traffic: engine.TrafficSpec{Kind: engine.TrafficUniform, Rate: 0.0002, MemFraction: 0.2},
		warmup:  2000, measure: 98000, drain: 300000}},
	{name: "sweep_service", seeds: 4},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config returns the system at the given seed. tiny shrinks it to a 4-chip
// package and 1/20 of the windows for the unit tests.
func (w *simWorkload) config(seed uint64, tiny bool) config.Config {
	chips, warm, meas, drain := w.chips, w.warmup, w.measure, w.drain
	if tiny {
		chips, warm, meas, drain = 4, warm/20, meas/20, drain/20
	}
	c := config.MustXCYM(chips, config.DefaultStacks(chips), w.arch)
	c.Seed = seed
	c.WarmupCycles, c.MeasureCycles, c.DrainCycles = warm, meas, drain
	c.EngineShards = w.shards
	return c
}

// spec returns the workload's experiment at one config seed.
func (w workload) spec(seed uint64, tiny bool) ([]byte, error) {
	if w.sim == nil {
		return sweepSpec(seed, tiny)
	}
	return spec.New(w.name, w.sim.config(seed, tiny), w.sim.traffic).MarshalPretty()
}

// points returns the workload's expanded points at one config seed, with
// the spec they came from.
func (w workload) points(seed uint64, tiny bool) ([]byte, []spec.Point, error) {
	specJSON, err := w.spec(seed, tiny)
	if err != nil {
		return nil, nil, err
	}
	sp, err := spec.Parse(specJSON)
	if err != nil {
		return nil, nil, err
	}
	pts, err := sp.Expand()
	return specJSON, pts, err
}

// sweepSpec is sweep_service's experiment: {4C, 16C} x {interposer,
// wireless, hybrid} x four uniform rates from light load to saturation.
// The windows are a tenth of the config default so that a run holds
// several reps. tiny keeps only the 4-chip systems and shortens the
// windows further.
func sweepSpec(seed uint64, tiny bool) ([]byte, error) {
	base := config.Default()
	base.Seed = seed
	base.WarmupCycles, base.MeasureCycles = 200, 800
	chips := []int{4, 16}
	if tiny {
		chips = []int{4}
		base.WarmupCycles, base.MeasureCycles = 20, 80
	}
	sp := spec.New("sweep_service", base, engine.TrafficSpec{Kind: engine.TrafficUniform, MemFraction: 0.2})
	systems := spec.Axis{Name: "system"}
	for _, n := range chips {
		for _, arch := range []config.Architecture{config.ArchInterposer, config.ArchWireless, config.ArchHybrid} {
			c := config.MustXCYM(n, config.DefaultStacks(n), arch)
			patch, err := configPatch(base, c)
			if err != nil {
				return nil, err
			}
			systems.Points = append(systems.Points, spec.ConfigPoint(c.Name, patch))
		}
	}
	rates := spec.Axis{Name: "rate"}
	for _, r := range []float64{0.001, 0.004, 0.016, 1.0} {
		rates.Points = append(rates.Points, spec.TrafficPoint(fmt.Sprintf("rate=%g", r), map[string]float64{"rate": r}))
	}
	sp.Axes = []spec.Axis{systems, rates}
	return sp.MarshalPretty()
}

// configPatch returns the fields of c that differ from base, so a preset
// can become an axis point without resetting the base seed or windows.
func configPatch(base, c config.Config) (map[string]any, error) {
	var b, m map[string]any
	for _, x := range []struct {
		cfg config.Config
		dst *map[string]any
	}{{base, &b}, {c, &m}} {
		raw, err := json.Marshal(x.cfg)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(raw, x.dst); err != nil {
			return nil, err
		}
	}
	patch := make(map[string]any)
	for k, v := range m {
		if k == "seed" || k == "warmup_cycles" || k == "measure_cycles" {
			continue
		}
		if !reflect.DeepEqual(v, b[k]) {
			patch[k] = v
		}
	}
	return patch, nil
}

// pass holds one measurement pass over a workload: the end-to-end samples,
// the simulated outcomes, the violations found, and — when traced — the
// per-layer samples.
type pass struct {
	attempted int
	failed    int
	failures  []string

	setup, cyclesPerS, heap, cold, warm []float64
	// seeds are the distinct config seeds run, in first-run order, with the
	// digest of each seed's points; results are those points' outcomes,
	// which the sim_* metrics average.
	seeds   []uint64
	digests map[uint64]string
	results []*engine.Result

	layers map[string][]float64
	// runs totals the in-process Runs of the pass.
	runs runTotals
	// stepped counts the cycles stepped by every Run inside the CPU profile,
	// the daemon's included.
	stepped      int64
	prof         *profile
	poolEff      []float64
	shardSpeedup float64
}

// runTotals accumulates engine.Run calls: wall time, cycles and the
// runtime.MemStats deltas around them.
type runTotals struct {
	n                   int
	wallNS              float64
	cycles, stepped     int64
	mallocs, bytes, gcs uint64
}

func (t *runTotals) add(r *engine.Result, d time.Duration, before, after *runtime.MemStats) {
	t.n++
	t.wallNS += float64(d.Nanoseconds())
	t.cycles += r.Cycles
	t.stepped += r.Cycles - r.IdleCyclesSkipped
	t.mallocs += after.Mallocs - before.Mallocs
	t.bytes += after.TotalAlloc - before.TotalAlloc
	t.gcs += uint64(after.NumGC - before.NumGC)
}

func newPass() *pass {
	return &pass{digests: make(map[uint64]string), layers: make(map[string][]float64)}
}

// op runs fn as one checked operation: it counts as failed when fn records
// a violation.
func (p *pass) op(fn func() error) error {
	p.attempted++
	n := len(p.failures)
	err := fn()
	if len(p.failures) > n {
		p.failed++
	}
	return err
}

func (p *pass) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// digest combines the seeds' digests in run order.
func (p *pass) digest() string {
	d := make([]string, len(p.seeds))
	for i, s := range p.seeds {
		d[i] = p.digests[s]
	}
	return combine(d)
}

func (p *pass) sample(name string, v float64) { p.layers[name] = append(p.layers[name], v) }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runner drives one workload at one seed.
type runner struct {
	seed    uint64
	seconds time.Duration
	tiny    bool
	tmp     string // scratch directory for stores
	tr      *tracer
}

// timed runs fn as one span and returns how long it took.
func (r *runner) timed(name string, fn func() error) (time.Duration, error) {
	h := r.tr.begin(name)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	r.tr.end(h)
	if err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// pass runs reps of w, cycling through the run's seeds, until every seed
// ran once and another rep would end after d. A traced pass records spans,
// a CPU profile (written to profPath) and per-layer samples.
func (r *runner) pass(w workload, d time.Duration, profPath string) (*pass, error) {
	traced := profPath != ""
	r.tr.on = traced
	defer func() { r.tr.on = false }()
	p := newPass()
	seeds := runSeeds(r.seed, w.seeds)
	buf, err := startProfile(traced)
	if err != nil {
		return nil, err
	}
	defer pprof.StopCPUProfile() // a no-op once stopProfile ran
	start := time.Now()
	var last time.Duration
	for i := 0; i < len(seeds) || time.Since(start)+last <= d; i++ {
		t0 := time.Now()
		if err := r.rep(w, seeds[i%len(seeds)], traced, p); err != nil {
			return nil, err
		}
		last = time.Since(t0)
	}
	if err := stopProfile(buf, profPath, p); err != nil {
		return nil, err
	}
	if traced && w.sim != nil && w.sim.shards > 1 {
		if p.shardSpeedup, err = r.shardSpeedup(w, seeds[0], p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// rep submits the workload's spec at one seed to a service over a fresh
// temporary store, cold, and then runs the same points in this process.
// Warm resubmits to the populated store come both before and after the
// in-process runs, so that they sample the host at two moments of the rep.
// The cold response must match the in-process results point by point,
// every warm response the cold one, and every rep of a seed its first.
func (r *runner) rep(w workload, seed uint64, traced bool, p *pass) error {
	specJSON, pts, err := w.points(seed, r.tiny)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(r.tmp, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	got, cold, err := r.coldRequest(st, specJSON, len(pts), traced, p)
	if err != nil {
		return err
	}
	if err := r.warm(st, specJSON, got, traced, p); err != nil {
		return err
	}
	res, serial, err := r.inProcess(pts, traced, p)
	if err != nil {
		return err
	}
	if err := r.warm(st, specJSON, got, traced, p); err != nil {
		return err
	}
	want, err := pointDigests(res)
	if err != nil {
		return err
	}
	p.op(func() error {
		for i := range want {
			if got[i] != want[i] {
				p.fail("seed %d point %d: cold result %.12s differs from the in-process %.12s", seed, i, got[i], want[i])
			}
		}
		if first, ok := p.digests[seed]; !ok {
			p.seeds = append(p.seeds, seed)
			p.digests[seed] = combine(want)
			p.results = append(p.results, res...)
		} else if first != combine(want) {
			p.fail("seed %d: digest %.12s differs from the seed's first rep %.12s", seed, combine(want), first)
		}
		return nil
	})
	if !traced {
		return nil
	}
	p.poolEff = append(p.poolEff, serial.Seconds()/(workers*cold.Seconds()))
	return r.specLayers(st, specJSON, p)
}

// inProcess runs every point in this process: Validate, New, live heap,
// Run, checks. It records the rep's setup_s (summed New), heap_live_mb
// (largest live heap after one New) and sim_cycles_per_s (summed cycles
// over summed Run) samples, and returns the results and the serial New +
// Run time.
func (r *runner) inProcess(pts []spec.Point, traced bool, p *pass) ([]*engine.Result, time.Duration, error) {
	root := r.tr.begin("bench.in_process")
	defer r.tr.end(root)
	out := make([]*engine.Result, len(pts))
	var setup, run time.Duration
	var cycles int64
	var heap float64
	for i, pt := range pts {
		err := p.op(func() error {
			e, dn, err := r.newEngine(pt.Params(), traced, p)
			if err != nil {
				return err
			}
			heap = max(heap, liveHeapMB())
			before := memStats()
			res, dr, err := r.runChecked(e, p)
			if err != nil {
				return err
			}
			p.runs.add(res, dr, before, memStats())
			p.stepped += res.Cycles - res.IdleCyclesSkipped
			setup, run, cycles, out[i] = setup+dn, run+dr, cycles+res.Cycles, res
			return nil
		})
		if err != nil {
			return nil, 0, err
		}
	}
	p.setup = append(p.setup, setup.Seconds())
	p.heap = append(p.heap, heap)
	p.cyclesPerS = append(p.cyclesPerS, float64(cycles)/run.Seconds())
	return out, setup + run, nil
}

// newEngine validates the configuration and builds its engine, returning
// the engine and the New time. A traced pass first times the construction
// layers New calls, standalone and in New's order, and records
// engine.wire_ms: New minus those calls.
func (r *runner) newEngine(params engine.Params, traced bool, p *pass) (*engine.Engine, time.Duration, error) {
	params.BuildWorkers = workers
	dv, err := r.timed("config.validate", params.Cfg.Validate)
	if err != nil {
		return nil, 0, err
	}
	standalone := dv
	if traced {
		p.sample("config.validate_us", us(dv))
		d, err := r.buildLayers(params.Cfg, p)
		if err != nil {
			return nil, 0, err
		}
		standalone += d
	}
	var e *engine.Engine
	dn, err := r.timed("engine.new", func() (err error) {
		e, err = engine.New(params)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	if traced {
		p.sample("engine.wire_ms", ms(dn-standalone))
	}
	return e, dn, nil
}

// buildLayers times topology, route-table and deadlock-check construction
// standalone and returns their total.
func (r *runner) buildLayers(cfg config.Config, p *pass) (time.Duration, error) {
	var g *topo.Graph
	var ct *route.ClassTables
	dt, err := r.timed("topo.build", func() (err error) {
		g, err = topo.BuildWorkers(cfg, workers)
		return err
	})
	if err != nil {
		return 0, err
	}
	dr, err := r.timed("route.build_classes", func() (err error) {
		ct, err = route.BuildClasses(g, workers)
		return err
	})
	if err != nil {
		return 0, err
	}
	dc, err := r.timed("route.cdg_check", func() error { return route.CheckDeadlockFreeUnion(g, ct.Tables()...) })
	if err != nil {
		return 0, err
	}
	p.sample("topo.build_ms", ms(dt))
	p.sample("route.build_classes_ms", ms(dr))
	p.sample("route.cdg_check_ms", ms(dc))
	return dt + dr + dc, nil
}

// runChecked runs e, then checks flit conservation and the pipeline
// invariants; a violation is recorded on p.
func (r *runner) runChecked(e *engine.Engine, p *pass) (*engine.Result, time.Duration, error) {
	var res *engine.Result
	dr, err := r.timed("engine.run", func() (err error) {
		res, err = e.Run()
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	r.timed("engine.check", func() error {
		if err := e.CheckFlitConservation(); err != nil {
			p.fail("%s: %v", res.Name, err)
		}
		if err := e.CheckPipelineInvariants(); err != nil {
			p.fail("%s: %v", res.Name, err)
		}
		return nil
	})
	return res, dr, nil
}

// shardSpeedup runs one point sharded and then serial, both unprofiled and
// checked, and returns the serial Run time over the sharded one.
func (r *runner) shardSpeedup(w workload, seed uint64, p *pass) (float64, error) {
	root := r.tr.begin("bench.shard_speedup")
	defer r.tr.end(root)
	_, pts, err := w.points(seed, r.tiny)
	if err != nil {
		return 0, err
	}
	var d [2]time.Duration
	for i, shards := range []int{pts[0].Config.EngineShards, 0} {
		params := pts[0].Params()
		params.Cfg.EngineShards = shards
		err := p.op(func() error {
			e, _, err := r.newEngine(params, false, p)
			if err != nil {
				return err
			}
			_, d[i], err = r.runChecked(e, p)
			return err
		})
		if err != nil {
			return 0, err
		}
	}
	return float64(d[1]) / float64(d[0]), nil
}

// service is an in-process wimcd over a store, reached through one
// daemon.Client over an in-memory listener.
type service struct {
	http   *httptest.Server
	client *daemon.Client
}

func serve(st *store.Store) *service {
	hs := httptest.NewUnstartedServer(daemon.NewServer(st, workers))
	hs.Listener.Close()
	pl := newPipeListener()
	hs.Listener = pl
	hs.Start()
	return &service{http: hs, client: &daemon.Client{Base: hs.URL, HTTP: pl.client()}}
}

// close stops the service; closing none is a no-op.
func (s *service) close() {
	if s == nil {
		return
	}
	s.client.HTTP.CloseIdleConnections()
	s.http.Close()
}

// warm resubmits the spec to the populated store for warmFor, in batches
// of warmBatch requests; a traced pass makes one batch, a tiny one
// warmTiny requests. Every response must be all hits and match want point
// by point. Each request is one sweep_warm_s sample, measured
// against the reference op run right after it (see refOp). A service
// keeps every job it ran, so each batch gets a fresh one over the store,
// keeping the heap the requests run against the same size; and each batch
// first collects the garbage left before it rather than pause in the
// middle. A warm request is serial work, so the phase runs on one P:
// client and server goroutines then hand off on one thread.
func (r *runner) warm(st *store.Store, specJSON []byte, want []string, traced bool, p *pass) error {
	root := r.tr.begin("bench.warm")
	defer r.tr.end(root)
	runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(workers)
	t0 := time.Now()
	done := func(k int) bool { return k > 0 && time.Since(t0) >= warmFor }
	if r.tiny || traced {
		n := warmBatch
		if r.tiny {
			n = warmTiny
		}
		done = func(k int) bool { return k == n }
	}
	var svc *service
	defer func() { svc.close() }()
	for k := 0; !done(k); k++ {
		if k%warmBatch == 0 {
			svc.close()
			svc = serve(st)
			runtime.GC()
		}
		err := p.op(func() error {
			res, d, err := r.request(svc.client, specJSON, traced, p)
			if err != nil {
				return err
			}
			p.warm = append(p.warm, refSeconds*d.Seconds()/timeRefOp().Seconds())
			_, err = verify(p, res, want, len(want), len(want))
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// coldRequest submits the spec of n points to the empty store, and returns
// the digests of the response's points and the request's time. A traced
// pass then times store.Put of every result, standalone.
func (r *runner) coldRequest(st *store.Store, specJSON []byte, n int, traced bool, p *pass) ([]string, time.Duration, error) {
	root := r.tr.begin("bench.cold")
	defer r.tr.end(root)
	svc := serve(st)
	defer svc.close()
	var d time.Duration
	var got []string
	err := p.op(func() error {
		res, dr, err := r.request(svc.client, specJSON, traced, p)
		if err != nil {
			return err
		}
		d = dr
		for _, pt := range res.Points {
			p.stepped += pt.Result.Cycles - pt.Result.IdleCyclesSkipped
		}
		if got, err = verify(p, res, nil, n, 0); err != nil {
			return err
		}
		if !traced {
			return nil
		}
		for _, pt := range res.Points {
			dp, err := r.timed("store.put", func() error { return st.Put(pt.Key, pt.Result) })
			if err != nil {
				return err
			}
			p.sample("store.put_us", us(dp))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	p.cold = append(p.cold, d.Seconds())
	return got, d, nil
}

// request is one closed-loop client request: submit the spec, follow its
// NDJSON progress stream to the end, fetch the results. It returns the
// results and the wall time from submit to results.
func (r *runner) request(cl *daemon.Client, specJSON []byte, traced bool, p *pass) (*daemon.ResultsResponse, time.Duration, error) {
	var sum daemon.JobSummary
	var res daemon.ResultsResponse
	t0 := time.Now()
	ds, err := r.timed("daemon.submit", func() (err error) {
		sum, err = cl.Submit(specJSON)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	if _, err := r.timed("daemon.stream", func() error {
		return cl.Stream(sum.ID, func(ev daemon.Event) error {
			if ev.Type == "error" {
				return errors.New(ev.Error)
			}
			return nil
		})
	}); err != nil {
		return nil, 0, err
	}
	dr, err := r.timed("daemon.results", func() (err error) {
		res, err = cl.Results(sum.ID)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	total := time.Since(t0)
	if traced {
		p.sample("daemon.submit_ms", ms(ds))
		p.sample("daemon.results_ms", ms(dr))
	}
	return &res, total, nil
}

// verify checks a service response of n points against the expected cache
// outcome and, when want is given, against the expected point digests. It
// returns the digests of the response's points; all are empty when the
// response has the wrong number of points.
func verify(p *pass, res *daemon.ResultsResponse, want []string, n, hits int) ([]string, error) {
	if res.Stats == nil || res.Stats.Hits != hits || res.Stats.Misses != n-hits {
		p.fail("job %s: stats %+v, want %d hits of %d", res.ID, res.Stats, hits, n)
	}
	got := make([]string, n)
	if len(res.Points) != n {
		p.fail("job %s: %d points, want %d", res.ID, len(res.Points), n)
		return got, nil
	}
	for i, pt := range res.Points {
		dg, err := digest(pt.Result)
		if err != nil {
			return nil, err
		}
		if want != nil && dg != want[i] {
			p.fail("job %s point %d: result %.12s differs from the cold response's %.12s", res.ID, i, dg, want[i])
		}
		got[i] = dg
	}
	return got, nil
}

// specLayers times spec.Parse, Expand and Hash, and PointKey plus store.Get
// for every point, standalone.
func (r *runner) specLayers(st *store.Store, specJSON []byte, p *pass) error {
	var sp *spec.Spec
	var pts []spec.Point
	d, err := r.timed("spec.parse", func() (err error) {
		sp, err = spec.Parse(specJSON)
		return err
	})
	if err != nil {
		return err
	}
	p.sample("spec.parse_us", us(d))
	if d, err = r.timed("spec.expand", func() (err error) {
		pts, err = sp.Expand()
		return err
	}); err != nil {
		return err
	}
	p.sample("spec.expand_us", us(d))
	if d, err = r.timed("spec.hash", func() error {
		_, err := sp.Hash()
		return err
	}); err != nil {
		return err
	}
	p.sample("spec.hash_us", us(d))
	for _, pt := range pts {
		var key string
		if d, err = r.timed("store.point_key", func() (err error) {
			key, err = spec.PointKey(pt.Config, pt.Traffic)
			return err
		}); err != nil {
			return err
		}
		p.sample("store.point_key_us", us(d))
		var ok bool
		if d, err = r.timed("store.get", func() (err error) {
			_, ok, err = st.Get(key)
			return err
		}); err != nil {
			return err
		}
		if !ok {
			p.fail("store has no entry for point %d", pt.Index)
		}
		p.sample("store.get_us", us(d))
	}
	return nil
}

// startProfile begins the CPU profile of a traced pass.
func startProfile(traced bool) (*bytes.Buffer, error) {
	if !traced {
		return nil, nil
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return &buf, nil
}

// stopProfile ends the CPU profile, writes it to path and decodes it.
func stopProfile(buf *bytes.Buffer, path string, p *pass) error {
	if buf == nil {
		return nil
	}
	pprof.StopCPUProfile()
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		return err
	}
	p.prof = prof
	return nil
}

// memStats reads the runtime's allocation counters.
func memStats() *runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return &m
}

// liveHeapMB collects garbage and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	return float64(memStats().HeapAlloc) / 1e6
}

// profilePath is where a traced pass writes the workload's CPU profile.
func profilePath(dir, workload string) string {
	return filepath.Join(dir, workload+".cpu.pprof")
}
