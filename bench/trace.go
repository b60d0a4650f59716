package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; Parent is 0 for a root span.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// tracer keeps spans in memory while on; the untraced run keeps none. Spans
// nest by call order: the benchmark is sequential between spans, so the
// innermost open span is the parent of the next one.
type tracer struct {
	on       bool
	t0       time.Time
	workload string
	spans    []span
	open     []int // indexes into spans
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle (-1 while tracing is off).
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{
		ID:       len(t.spans) + 1,
		Parent:   parent,
		Name:     name,
		Workload: t.workload,
		Start:    int64(time.Since(t.t0)),
	})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(h int) {
	if h < 0 {
		return
	}
	t.spans[h].End = int64(time.Since(t.t0))
	if n := len(t.open); n > 0 && t.open[n-1] == h {
		t.open = t.open[:n-1]
	}
}

// write stores every span as DIR/spans.json.
func (t *tracer) write(dir string) error {
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans.json"), b, 0o644)
}

// layerOf is the layer a span belongs to: its name up to the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns each layer's self time for one workload: the duration
// of its spans minus the part their direct children cover. Children never
// overlap each other (the benchmark is sequential), so subtracting their
// durations is exact.
func selfTimes(spans []span, workload string) map[string]time.Duration {
	child := make(map[int]int64)
	for _, s := range spans {
		if s.Workload == workload && s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.Workload == workload {
			out[layerOf(s.Name)] += time.Duration(s.End - s.Start - child[s.ID])
		}
	}
	return out
}

// printSelfTimes writes the self-time table, largest first.
func printSelfTimes(w io.Writer, spans []span, workload string) {
	self := selfTimes(spans, workload)
	layers := make([]string, 0, len(self))
	var total time.Duration
	for l, d := range self {
		layers = append(layers, l)
		total += d
	}
	sort.Slice(layers, func(i, j int) bool {
		if self[layers[i]] != self[layers[j]] {
			return self[layers[i]] > self[layers[j]]
		}
		return layers[i] < layers[j]
	})
	fmt.Fprintf(w, "self time by layer (%s, traced pass):\n", workload)
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = 100 * float64(self[l]) / float64(total)
		}
		fmt.Fprintf(w, "  %-8s %12.3f ms %6.1f%%\n", l, float64(self[l])/1e6, share)
	}
}
