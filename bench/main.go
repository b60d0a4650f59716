// Command bench is the repository benchmark: it measures the simulator and
// the experiment service end to end on fixed workloads, checks every output
// against invariants and golden digests, and — when traced — attributes
// time to layers. See README.md for the workloads and metrics.
//
// Usage (from the repository root):
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-trace-dir DIR] [-out FILE]
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// An untraced run (-trace 0) reports the end-to-end metrics, a traced run
// the per-layer ones.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"

	"wimc/internal/engine"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// report is one workload's outcome.
type report struct {
	Workload  string        `json:"workload"`
	Seed      uint64        `json:"seed"`
	Traced    bool          `json:"traced"`
	Correct   bool          `json:"correct"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	Failures  []string      `json:"failures,omitempty"`
	Digest    string        `json:"digest"`
	Metrics   []metricValue `json:"metrics"`
}

// environment describes the host a report was measured on.
type environment struct {
	NumCPU        int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	GoVersion     string `json:"go_version"`
	EngineVersion string `json:"engine_version"`
	Seconds       int    `json:"seconds"`
}

// resultLine is the machine-readable last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// options are the parsed command-line flags.
type options struct {
	workloads    []workload
	seed         uint64
	seconds      int
	traced       bool
	traceDir     string
	out          string
	updateGolden string
	// scratch is the directory temporary stores live under.
	scratch string
	tiny    bool
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all, in order)")
	seed := fs.Uint64("seed", 1, "run seed; the run cycles through config seeds k(n-1)+1..kn of the golden pool, k per workload")
	seconds := fs.Int("seconds", 30, "measurement time per workload")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "where a traced run writes spans.json and <workload>.cpu.pprof")
	out := fs.String("out", "", "also write the full report (sample counts, tails, environment) as JSON to this file")
	update := fs.String("update-golden", "", "recompute the golden digests into this file (refused unless engine.Version changed)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 0 {
		return nil, fmt.Errorf("-seconds must be >= 0, got %d", *seconds)
	}
	o := &options{seed: *seed, seconds: *seconds, traced: *trace == 1, traceDir: *traceDir, out: *out,
		updateGolden: *update, scratch: ".bench_build"}
	if *name == "" {
		o.workloads = workloads
	} else if w, ok := findWorkload(*name); ok {
		o.workloads = []workload{w}
	} else {
		return nil, fmt.Errorf("unknown workload %q", *name)
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	runtime.GOMAXPROCS(workers)
	if o.updateGolden != "" {
		err = updateGolden(o, stderr)
	} else {
		err = measure(o, stdout)
	}
	if errors.Is(err, errViolations) {
		return 1
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// errViolations reports that a run completed but found incorrect outputs.
var errViolations = errors.New("correctness violations")

// measure runs every selected workload and prints the report.
func measure(o *options, stdout io.Writer) error {
	g, err := loadGolden()
	if err != nil {
		return err
	}
	if o.traced {
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			return err
		}
	}
	tmp, err := scratchDir(o.scratch)
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	tr := newTracer()
	var reps []*report
	for _, w := range o.workloads {
		r := &runner{seed: o.seed, seconds: time.Duration(o.seconds) * time.Second, tiny: o.tiny, tmp: tmp, tr: tr}
		tr.workload = w.name
		rep, err := r.measure(w, o, g)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printReport(stdout, rep)
		if o.traced {
			printSelfTimes(stdout, tr.spans, w.name)
		}
		reps = append(reps, rep)
	}
	if o.traced {
		if err := tr.write(o.traceDir); err != nil {
			return err
		}
	}
	if o.out != "" {
		if err := writeFull(o.out, o, reps); err != nil {
			return err
		}
	}
	line := summarize(reps, len(o.workloads) > 1)
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(b))
	if !line.Correct {
		return errViolations
	}
	return nil
}

// measure runs one workload: an untraced pass for the end-to-end metrics,
// or, traced, an untraced half and a traced half for the per-layer ones.
func (r *runner) measure(w workload, o *options, g *golden) (*report, error) {
	rep := &report{Workload: w.name, Seed: r.seed, Traced: o.traced}
	d := r.seconds
	if o.traced {
		d /= 2
	}
	p, err := r.pass(w, d, "")
	if err != nil {
		return nil, err
	}
	passes := []*pass{p}
	if o.traced {
		tp, err := r.pass(w, d, profilePath(o.traceDir, w.name))
		if err != nil {
			return nil, err
		}
		tp.op(func() error {
			if tp.digest() != p.digest() {
				tp.fail("traced pass digest %.12s differs from untraced %.12s", tp.digest(), p.digest())
			}
			return nil
		})
		passes = append(passes, tp)
		rep.Metrics = perLayer(p, tp)
	} else {
		rep.Metrics = endToEnd(p)
	}
	rep.Digest = p.digest()
	if !r.tiny {
		// Each seed's golden comparison counts as one more checked operation.
		for _, seed := range p.seeds {
			p.op(func() error {
				if msg := g.check(w.name, seed, p.digests[seed]); msg != "" {
					p.fail("%s", msg)
				}
				return nil
			})
		}
	}
	for _, x := range passes {
		rep.Attempted += x.attempted
		rep.Failed += x.failed
		rep.Failures = append(rep.Failures, x.failures...)
	}
	rep.Correct = len(rep.Failures) == 0
	return rep, nil
}

// summarize builds the result line. With several workloads the metric
// names are prefixed by the workload.
func summarize(reps []*report, prefix bool) resultLine {
	line := resultLine{Correct: true, Metrics: make(map[string]lineMetric)}
	for _, rep := range reps {
		line.Correct = line.Correct && rep.Correct
		line.Attempted += rep.Attempted
		line.Failed += rep.Failed
		for _, m := range rep.Metrics {
			name := m.Name
			if prefix {
				name = rep.Workload + "." + name
			}
			line.Metrics[name] = lineMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	return line
}

func printReport(w io.Writer, rep *report) {
	mode := "untraced"
	if rep.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  attempted %d  failed %d  digest %.12s\n",
		rep.Workload, rep.Seed, mode, rep.Attempted, rep.Failed, rep.Digest)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  VIOLATION: %s\n", f)
	}
	fmt.Fprintf(w, "  %-32s %16s  %-8s %-4s %5s  %s\n", "metric", "value", "unit", "stat", "n", "tail")
	for _, m := range rep.Metrics {
		stat, tailText := "-", "-"
		if m.Stat != "" {
			stat = m.Stat
		}
		if m.Tail != "" {
			tailText = fmt.Sprintf("%s=%.6g", m.Tail, m.TailValue)
		}
		fmt.Fprintf(w, "  %-32s %16.6g  %-8s %-4s %5d  %s\n", m.Name, m.Value, m.Unit, stat, m.N, tailText)
	}
}

// writeFull writes the reports with their environment.
func writeFull(path string, o *options, reps []*report) error {
	doc := struct {
		Environment environment `json:"environment"`
		Reports     []*report   `json:"reports"`
	}{
		Environment: environment{
			NumCPU:        runtime.NumCPU(),
			GOMAXPROCS:    runtime.GOMAXPROCS(0),
			GoVersion:     runtime.Version(),
			EngineVersion: engine.Version,
			Seconds:       o.seconds,
		},
		Reports: reps,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// scratchDir makes the temporary directory the stores live in, by default
// under the build directory so the benchmark writes only inside its
// checkout.
func scratchDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "scratch-")
}

// updateGolden recomputes every workload's digest for every pool seed,
// running the points in this process with all their checks.
func updateGolden(o *options, stderr io.Writer) error {
	g, err := loadGolden()
	if err != nil {
		return err
	}
	if err := g.updatable(); err != nil {
		return err
	}
	r := &runner{tr: newTracer()}
	digests := make(map[string]map[string]string)
	for _, w := range workloads {
		digests[w.name] = make(map[string]string)
		for seed := uint64(1); seed <= poolSize; seed++ {
			_, pts, err := w.points(seed, false)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			p := newPass()
			res, _, err := r.inProcess(pts, false, p)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			if len(p.failures) > 0 {
				return fmt.Errorf("%s seed %d: %s", w.name, seed, p.failures[0])
			}
			dg, err := pointDigests(res)
			if err != nil {
				return err
			}
			digests[w.name][strconv.FormatUint(seed, 10)] = combine(dg)
			fmt.Fprintf(stderr, "%s seed %d: %s\n", w.name, seed, combine(dg))
		}
	}
	return writeGolden(o.updateGolden, digests)
}
