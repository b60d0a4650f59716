package daemon

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"wimc/internal/config"
	"wimc/internal/engine"
	"wimc/internal/spec"
	"wimc/internal/store"
)

func testSpecJSON(t *testing.T) []byte {
	t.Helper()
	cfg := config.MustXCYM(4, 4, config.ArchWireless)
	cfg.WarmupCycles = 200
	cfg.MeasureCycles = 1800
	s := spec.New("daemon-test", cfg, engine.TrafficSpec{
		Kind: engine.TrafficUniform, Rate: 0.002, MemFraction: 0.2,
	})
	s.Axes = []spec.Axis{{Name: "seed", Points: []spec.AxisPoint{
		spec.ConfigPoint("seed=1", map[string]any{"seed": 1}),
		spec.ConfigPoint("seed=2", map[string]any{"seed": 2}),
	}}}
	b, err := s.MarshalPretty()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newTestServer(t *testing.T) (*Client, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(st, 0))
	t.Cleanup(ts.Close)
	return &Client{Base: ts.URL}, st
}

// TestSubmitStreamResults drives the full protocol: submit, watch the
// NDJSON stream to completion, fetch results; then resubmit the identical
// spec and require a 100% cache hit — zero engine runs.
func TestSubmitStreamResults(t *testing.T) {
	c, st := newTestServer(t)
	doc := testSpecJSON(t)

	sum, err := c.Submit(doc)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Total != 2 || sum.ID == "" || len(sum.Hash) != 64 {
		t.Fatalf("submit summary = %+v", sum)
	}
	if sum.ID[:16] != sum.Hash[:16] {
		t.Fatalf("job id %q does not carry the spec hash %q", sum.ID, sum.Hash)
	}

	var pointEvents, terminal int
	err = c.Stream(sum.ID, func(e Event) error {
		switch e.Type {
		case "point":
			pointEvents++
			if e.Key == "" || e.Total != 2 {
				t.Errorf("bad point event: %+v", e)
			}
		case "done":
			terminal++
			if e.Stats == nil || e.Stats.Misses != 2 {
				t.Errorf("cold done event stats = %+v, want 2 misses", e.Stats)
			}
		case "error":
			t.Errorf("unexpected error event: %s", e.Error)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if pointEvents != 2 || terminal != 1 {
		t.Fatalf("stream saw %d point events, %d terminal; want 2, 1", pointEvents, terminal)
	}

	res, err := c.Results(sum.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != StateDone || len(res.Points) != 2 {
		t.Fatalf("results = state %s, %d points", res.State, len(res.Points))
	}
	for i, p := range res.Points {
		if p.Result == nil || p.Key == "" {
			t.Fatalf("point %d incomplete: %+v", i, p)
		}
		// Every point is now individually addressable.
		r, ok, err := c.Result(p.Key)
		if err != nil || !ok {
			t.Fatalf("point %d not served by key: ok=%v err=%v", i, ok, err)
		}
		want, _ := json.Marshal(p.Result)
		got, _ := json.Marshal(r)
		if string(want) != string(got) {
			t.Fatalf("point %d: keyed fetch differs from job results", i)
		}
	}
	if n, _ := st.Len(); n != 2 {
		t.Fatalf("store holds %d entries, want 2", n)
	}

	// Resubmit: identical experiment identity, fresh job, all cache hits.
	sum2, err := c.Submit(doc)
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Hash != sum.Hash || sum2.ID == sum.ID {
		t.Fatalf("resubmit: hash %s id %s vs %s/%s", sum2.Hash, sum2.ID, sum.Hash, sum.ID)
	}
	res2, err := c.Results(sum2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats == nil || res2.Stats.Misses != 0 || res2.Stats.Hits != 2 {
		t.Fatalf("warm resubmit stats = %+v, want 2 hits / 0 misses", res2.Stats)
	}
	for i := range res2.Points {
		a, _ := json.Marshal(res.Points[i].Result)
		b, _ := json.Marshal(res2.Points[i].Result)
		if string(a) != string(b) {
			t.Fatalf("point %d differs across cached resubmit", i)
		}
	}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	c, _ := newTestServer(t)
	for _, doc := range []string{
		`{`,
		`{"confg": {}}`,
		`{"axes": [{"name": "k", "points": [{"patch": {"config": {"wirelss_channels": 2}}}]}]}`,
		`{"config": {"vcs": 0}}`,
		// 2^64 points: the grid size overflows int.
		`{"axes": [` + strings.Repeat(`{"points": [{"patch": {}}, {"patch": {}}]},`, 63) +
			`{"points": [{"patch": {}}, {"patch": {}}]}]}`,
	} {
		if _, err := c.Submit([]byte(doc)); err == nil {
			t.Errorf("accepted bad spec %s", doc)
		}
	}
}

func TestUnknownRoutes(t *testing.T) {
	c, _ := newTestServer(t)
	if _, err := c.Job("nope"); err == nil {
		t.Error("unknown job id served")
	}
	if _, ok, err := c.Result("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"); ok || err != nil {
		t.Errorf("missing result key: ok=%v err=%v", ok, err)
	}
	if _, _, err := c.Result("../escape"); err == nil {
		t.Error("invalid key accepted")
	}
	v, err := c.Version()
	if err != nil || v.EngineVersion != engine.Version {
		t.Errorf("version = %+v, %v", v, err)
	}
}
