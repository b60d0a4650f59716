package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the tests compare against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return &f
}

// runTiny runs one workload at tiny scale and returns the parsed last line.
func runTiny(t *testing.T, w workload, traced bool, traceDir string) resultLine {
	t.Helper()
	var out bytes.Buffer
	o := &options{workloads: []workload{w}, seed: 1, traced: traced, traceDir: traceDir,
		scratch: t.TempDir(), tiny: true}
	if err := measure(o, &out); err != nil {
		t.Fatalf("%s: %v\n%s", w.name, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", w.name, err)
	}
	return line
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// checkNames asserts the line reports exactly the named metrics, with
// their units.
func checkNames(t *testing.T, w string, line resultLine, want map[string]string) {
	t.Helper()
	for name, m := range line.Metrics {
		if !metricName.MatchString(name) || len(name) > 64 {
			t.Errorf("%s: bad metric name %q", w, name)
		}
		unit, ok := want[name]
		if !ok {
			t.Errorf("%s: metric %q is not in BENCHMARK.json", w, name)
		} else if m.Unit != unit || m.Unit == "" {
			t.Errorf("%s: metric %q has unit %q, BENCHMARK.json says %q", w, name, m.Unit, unit)
		}
	}
	for name := range want {
		if _, ok := line.Metrics[name]; !ok {
			t.Errorf("%s: BENCHMARK.json metric %q not reported", w, name)
		}
	}
}

func TestWorkloadsTiny(t *testing.T) {
	f := loadBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(f.Workloads), len(workloads))
	}
	endToEnd := make(map[string]string)
	for _, m := range f.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	perLayer := make(map[string]string)
	for _, m := range f.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for i, bw := range f.Workloads {
		w, ok := findWorkload(bw.Name)
		if !ok || workloads[i].name != bw.Name {
			t.Fatalf("BENCHMARK.json workload %d %q does not match the benchmark's", i, bw.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			line := runTiny(t, w, false, "")
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
			}
			checkNames(t, w.name, line, endToEnd)
			// A traced run also checks that its traced half repeats the
			// digest of its untraced half.
			dir := t.TempDir()
			traced := runTiny(t, w, true, dir)
			if !traced.Correct || traced.Failed != 0 {
				t.Fatalf("traced: correct=%v failed=%d", traced.Correct, traced.Failed)
			}
			checkNames(t, w.name, traced, perLayer)
			checkTraceFiles(t, dir, w.name)
		})
	}
}

// TestDigestsRepeat checks that two runs of a workload give the same
// digest, and a different seed a different one.
func TestDigestsRepeat(t *testing.T) {
	w, _ := findWorkload("sat64_wireless")
	digestOf := func(seed uint64) string {
		r := &runner{seed: seed, tiny: true, tmp: t.TempDir(), tr: newTracer()}
		p, err := r.pass(w, 0, "")
		if err != nil {
			t.Fatal(err)
		}
		return p.digest()
	}
	a, b, c := digestOf(1), digestOf(1), digestOf(2)
	if a != b {
		t.Errorf("seed 1 digests differ: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 share digest %s", a)
	}
}

// TestHeapIndependentOfReps checks that heap_live_mb does not grow with the
// number of reps a pass makes: a rep must leave nothing live behind, or a
// faster change would make more reps and read as a heap regression.
func TestHeapIndependentOfReps(t *testing.T) {
	w, _ := findWorkload("sat64_wireless")
	const rounds = 6
	r := &runner{seed: 1, tiny: true, tmp: t.TempDir(), tr: newTracer()}
	p := newPass()
	seeds := runSeeds(r.seed, w.seeds)
	for i := 0; i < rounds*len(seeds); i++ {
		if err := r.rep(w, seeds[i%len(seeds)], false, p); err != nil {
			t.Fatal(err)
		}
	}
	// Each round of reps builds the same engines. The first round also pays
	// for one-time package state, and a single reading jitters by a few
	// percent with goroutines of the last service still winding down, so
	// compare whole rounds: the second with the last.
	k := len(seeds)
	second := mean(p.heap[k : 2*k])
	last := mean(p.heap[(rounds-1)*k:])
	if last > second*1.05 {
		t.Errorf("live heap grew from %.3f MB in the second round of reps to %.3f MB in round %d", second, last, rounds)
	}
}

func TestRunSeedsStayInPool(t *testing.T) {
	for _, w := range workloads {
		for n := uint64(0); n < 3*poolSize; n++ {
			s := runSeeds(n, w.seeds)
			if len(s) == 0 {
				t.Fatalf("%s covers no seed", w.name)
			}
			for j, seed := range s {
				if seed < 1 || seed > poolSize {
					t.Fatalf("runSeeds(%d, %d) = %v: seed outside 1..%d", n, w.seeds, s, poolSize)
				}
				if j > 0 && seed == s[0] {
					t.Fatalf("runSeeds(%d, %d) = %v repeats a seed", n, w.seeds, s)
				}
			}
		}
		if got := runSeeds(1, w.seeds); got[0] != 1 {
			t.Errorf("runSeeds(1, %d) = %v, want it to start at config seed 1", w.seeds, got)
		}
	}
}

// TestGoldenPinsEveryPoolSeed checks golden.json covers every seed a run
// can draw, so no run goes unchecked.
func TestGoldenPinsEveryPoolSeed(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for seed := uint64(1); seed <= poolSize; seed++ {
			if len(g.Digests[w.name][strconv.FormatUint(seed, 10)]) != 64 {
				t.Errorf("%s: no digest for seed %d", w.name, seed)
			}
		}
	}
}

// checkTraceFiles asserts a traced run wrote well-formed spans and a CPU
// profile for the workload.
func checkTraceFiles(t *testing.T, dir, workload string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	ids := make(map[int]bool)
	names := make(map[string]bool)
	for _, s := range spans {
		ids[s.ID] = true
		names[s.Name] = true
		if s.End < s.Start || s.Workload != workload {
			t.Errorf("bad span %+v", s)
		}
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("span %d names parent %d, which does not precede it", s.ID, s.Parent)
		}
	}
	for _, want := range []string{"config.validate", "engine.new", "engine.run", "daemon.submit", "store.get"} {
		if !names[want] {
			t.Errorf("no %q span", want)
		}
	}
	prof, err := os.ReadFile(filepath.Join(dir, workload+".cpu.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseProfile(prof); err != nil {
		t.Fatal(err)
	}
}

var sink uint64

//go:noinline
func busyWork(n int) uint64 {
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + uint64(i)
	}
	return x
}

func TestParseProfileFindsBusyFunction(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(500 * time.Millisecond); time.Now().Before(deadline); {
		sink += busyWork(1 << 16)
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	col := p.valueIndex("cpu/nanoseconds")
	if col < 0 {
		t.Fatalf("no cpu/nanoseconds column in %v", p.sampleTypes)
	}
	all := p.cumulative(col, func(string) bool { return true })
	busy := p.cumulative(col, func(fn string) bool { return strings.HasSuffix(fn, ".busyWork") })
	if all == 0 || busy*2 < all {
		t.Fatalf("busyWork has %d of %d profiled ns; want most", busy, all)
	}
}

func TestTail(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i)
	}
	if label, _, ok := tail(v); !ok || label != "p90" {
		t.Errorf("100 samples: got %q, want p90", label)
	}
	if _, _, ok := tail(v[:19]); ok {
		t.Error("19 samples leave no percentile with ten beyond it")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
