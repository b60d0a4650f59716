// Package daemon implements the wimcd experiment service: an HTTP/JSON
// server that accepts canonical experiment specs (internal/spec), runs
// their points through store.RunPoints on its deterministic worker pool,
// streams per-point progress as NDJSON, and serves every Result from a
// content-addressed store (internal/store) so a re-submitted spec costs
// zero engine runs.
//
// The API surface (all under /v1):
//
//	POST /v1/experiments          submit a spec; returns a job summary (202)
//	GET  /v1/experiments          list jobs in submission order
//	GET  /v1/experiments/{id}         job summary
//	GET  /v1/experiments/{id}/stream  NDJSON progress events (live tail)
//	GET  /v1/experiments/{id}/results blocks until terminal; full results
//	GET  /v1/results/{key}        one cached Result by content address
//	GET  /v1/healthz              liveness
//	GET  /v1/version              engine version + store location
//
// Job IDs are <spec-hash[:16]>-<seq>: the prefix ties a job to its
// experiment identity, the sequence number keeps resubmissions distinct.
// The daemon itself holds no result state worth preserving — the store is
// the durable artifact, and it is shared safely with concurrent wimcbench
// -store runs (atomic writes, content-addressed keys).
package daemon

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"wimc/internal/engine"
	"wimc/internal/spec"
	"wimc/internal/store"
)

// maxSpecBytes bounds a submitted spec document.
const maxSpecBytes = 16 << 20

// Job states.
const (
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Event is one NDJSON progress record on an experiment stream.
type Event struct {
	// Type is "point" (one point completed), "done" (job finished) or
	// "error" (job failed; Error holds the message).
	Type string `json:"type"`
	// Point fields (Type == "point").
	Index  int      `json:"index,omitempty"`
	Labels []string `json:"labels,omitempty"`
	Key    string   `json:"key,omitempty"`
	Cached bool     `json:"cached,omitempty"`
	// Done/Total track batch progress on every point event.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Terminal fields.
	Stats *store.Stats `json:"stats,omitempty"`
	Error string       `json:"error,omitempty"`
}

// JobSummary is the wire form of one job's state.
type JobSummary struct {
	ID    string       `json:"id"`
	Name  string       `json:"name,omitempty"`
	Hash  string       `json:"hash"`
	State string       `json:"state"`
	Total int          `json:"total_points"`
	Done  int          `json:"done_points"`
	Stats *store.Stats `json:"stats,omitempty"`
	Error string       `json:"error,omitempty"`
}

// PointResult is one point of a results response: grid coordinates,
// content address, exact inputs, Result.
type PointResult struct {
	Labels  []string           `json:"labels,omitempty"`
	Key     string             `json:"key"`
	Config  json.RawMessage    `json:"config"`
	Traffic engine.TrafficSpec `json:"traffic"`
	Result  *engine.Result     `json:"result"`
}

// ResultsResponse is the full outcome of a finished job.
type ResultsResponse struct {
	JobSummary
	Points []PointResult `json:"points"`
}

// VersionInfo is the /v1/version payload.
type VersionInfo struct {
	EngineVersion string `json:"engine_version"`
	StoreDir      string `json:"store_dir"`
}

// job is the in-memory state of one submitted experiment.
type job struct {
	id      string
	name    string
	hash    string
	state   string
	pts     []spec.Point
	done    int
	events  []Event
	results []*engine.Result
	stats   store.Stats
	err     string
	// cond shares the server mutex; broadcast on every event and on the
	// terminal transition.
	cond *sync.Cond
}

// Server is the wimcd HTTP handler. It is safe for concurrent use.
type Server struct {
	st      *store.Store
	workers int

	mu    sync.Mutex
	seq   int
	jobs  map[string]*job
	order []string
}

// NewServer returns a server executing specs against st (required) with
// the given default worker count (0 = one per core); a spec's own Workers
// field, when set, takes precedence for that job.
func NewServer(st *store.Store, workers int) *Server {
	return &Server{st: st, workers: workers, jobs: make(map[string]*job)}
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// ServeHTTP routes the /v1 API by hand: the module targets Go 1.21, which
// predates method/wildcard patterns in net/http's ServeMux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path, ok := strings.CutPrefix(r.URL.Path, "/v1/")
	if !ok {
		httpError(w, http.StatusNotFound, "unknown path %q (API lives under /v1/)", r.URL.Path)
		return
	}
	switch {
	case path == "healthz":
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	case path == "version":
		writeJSON(w, http.StatusOK, VersionInfo{EngineVersion: engine.Version, StoreDir: s.st.Dir()})
	case path == "experiments":
		switch r.Method {
		case http.MethodPost:
			s.handleSubmit(w, r)
		case http.MethodGet:
			s.handleList(w)
		default:
			httpError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		}
	case strings.HasPrefix(path, "experiments/"):
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
			return
		}
		rest := strings.TrimPrefix(path, "experiments/")
		id, sub, _ := strings.Cut(rest, "/")
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		if j == nil {
			httpError(w, http.StatusNotFound, "no such experiment %q", id)
			return
		}
		switch sub {
		case "":
			s.handleJob(w, j)
		case "stream":
			s.handleStream(w, j)
		case "results":
			s.handleResults(w, j)
		default:
			httpError(w, http.StatusNotFound, "unknown experiment endpoint %q", sub)
		}
	case strings.HasPrefix(path, "results/"):
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
			return
		}
		s.handleResult(w, strings.TrimPrefix(path, "results/"))
	default:
		httpError(w, http.StatusNotFound, "unknown endpoint %q", path)
	}
}

// Submit parses, expands and schedules a spec, returning the new job's
// summary. It is the programmatic form of POST /v1/experiments.
func (s *Server) Submit(data []byte) (JobSummary, error) {
	sp, err := spec.Parse(data)
	if err != nil {
		return JobSummary{}, err
	}
	pts, err := sp.Expand()
	if err != nil {
		return JobSummary{}, err
	}
	hash, err := sp.Hash()
	if err != nil {
		return JobSummary{}, err
	}
	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("%s-%d", hash[:16], s.seq)
	j := &job{
		id:    id,
		name:  sp.Name,
		hash:  hash,
		state: StateRunning,
		pts:   pts,
		cond:  sync.NewCond(&s.mu),
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	workers := s.workers
	if sp.Workers > 0 {
		workers = sp.Workers
	}
	s.mu.Unlock()
	go s.run(j, workers)
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.summaryLocked(), nil
}

// run executes one job on the pool, recording progress events.
func (s *Server) run(j *job, workers int) {
	rs, stats, err := store.RunPoints(s.st, workers, j.pts, func(i int, r *engine.Result, cached bool) {
		s.mu.Lock()
		j.done++
		j.events = append(j.events, Event{
			Type:   "point",
			Index:  i,
			Labels: j.pts[i].Labels,
			Key:    j.pts[i].Key,
			Cached: cached,
			Done:   j.done,
			Total:  len(j.pts),
		})
		j.cond.Broadcast()
		s.mu.Unlock()
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		j.state = StateFailed
		j.err = err.Error()
		j.events = append(j.events, Event{Type: "error", Error: j.err})
	} else {
		j.state = StateDone
		j.results = rs
		j.stats = stats
		j.events = append(j.events, Event{Type: "done", Stats: &j.stats, Done: j.done, Total: len(j.pts)})
	}
	j.cond.Broadcast()
}

func (j *job) summaryLocked() JobSummary {
	sum := JobSummary{
		ID:    j.id,
		Name:  j.name,
		Hash:  j.hash,
		State: j.state,
		Total: len(j.pts),
		Done:  j.done,
		Error: j.err,
	}
	if j.state == StateDone {
		st := j.stats
		sum.Stats = &st
	}
	return sum
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read spec: %v", err)
		return
	}
	sum, err := s.Submit(data)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, sum)
}

func (s *Server) handleList(w http.ResponseWriter) {
	s.mu.Lock()
	out := make([]JobSummary, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].summaryLocked())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJob(w http.ResponseWriter, j *job) {
	s.mu.Lock()
	sum := j.summaryLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, sum)
}

// handleStream tails the job's event log as NDJSON: everything recorded so
// far replays immediately, then events stream live until the job reaches a
// terminal state. Jobs always terminate (the engine has liveness
// watchdogs), so the handler cannot block forever.
func (s *Server) handleStream(w http.ResponseWriter, j *job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := 0
	for {
		s.mu.Lock()
		for next >= len(j.events) && j.state == StateRunning {
			j.cond.Wait()
		}
		batch := append([]Event(nil), j.events[next:]...)
		next += len(batch)
		state := j.state
		remaining := len(j.events) - next
		s.mu.Unlock()
		for _, e := range batch {
			if err := enc.Encode(e); err != nil {
				return // client went away
			}
		}
		if fl != nil {
			fl.Flush()
		}
		if state != StateRunning && remaining == 0 {
			return
		}
	}
}

// handleResults blocks until the job is terminal, then returns the full
// result set (or the failure).
func (s *Server) handleResults(w http.ResponseWriter, j *job) {
	s.mu.Lock()
	for j.state == StateRunning {
		j.cond.Wait()
	}
	sum := j.summaryLocked()
	pts := j.pts
	rs := j.results
	s.mu.Unlock()
	if sum.State == StateFailed {
		httpError(w, http.StatusInternalServerError, "experiment failed: %s", sum.Error)
		return
	}
	resp := ResultsResponse{JobSummary: sum, Points: make([]PointResult, len(pts))}
	for i := range pts {
		cfg, err := json.Marshal(pts[i].Config)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "encode point %d: %v", i, err)
			return
		}
		resp.Points[i] = PointResult{
			Labels:  pts[i].Labels,
			Key:     pts[i].Key,
			Config:  cfg,
			Traffic: pts[i].Traffic,
			Result:  rs[i],
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleResult(w http.ResponseWriter, key string) {
	r, ok, err := s.st.Get(key)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, "no cached result under %s", key)
		return
	}
	writeJSON(w, http.StatusOK, r)
}
