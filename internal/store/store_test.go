package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"wimc/internal/config"
	"wimc/internal/engine"
	"wimc/internal/spec"
)

// quickSpec is a small two-point sweep with shortened run windows, fast
// enough to execute repeatedly in tests.
func quickSpec() *spec.Spec {
	cfg := config.MustXCYM(4, 4, config.ArchWireless)
	cfg.WarmupCycles = 200
	cfg.MeasureCycles = 1800
	s := spec.New("store-test", cfg, engine.TrafficSpec{
		Kind: engine.TrafficUniform, Rate: 0.002, MemFraction: 0.2,
	})
	s.Axes = []spec.Axis{{Name: "seed", Points: []spec.AxisPoint{
		spec.ConfigPoint("seed=1", map[string]any{"seed": 1}),
		spec.ConfigPoint("seed=2", map[string]any{"seed": 2}),
	}}}
	return s
}

func openTemp(t *testing.T) *Store {
	t.Helper()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestPutGetRoundTrip(t *testing.T) {
	st := openTemp(t)
	cfg := config.Default()
	key, err := spec.PointKey(cfg, engine.TrafficSpec{Kind: engine.TrafficUniform, Rate: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if st.Has(key) {
		t.Fatal("empty store claims to have key")
	}
	if _, ok, err := st.Get(key); ok || err != nil {
		t.Fatalf("missing entry: ok=%v err=%v, want false,nil", ok, err)
	}
	want := &engine.Result{InjectedPackets: 42, DeliveredPackets: 42}
	if err := st.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Get(key)
	if err != nil || !ok {
		t.Fatalf("get after put: ok=%v err=%v", ok, err)
	}
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if string(wb) != string(gb) {
		t.Fatalf("round trip not byte-identical:\n put %s\n got %s", wb, gb)
	}
	n, err := st.Len()
	if err != nil || n != 1 {
		t.Fatalf("Len = %d, %v; want 1", n, err)
	}
	keys, err := st.Keys()
	if err != nil || len(keys) != 1 || keys[0] != key {
		t.Fatalf("Keys = %v, %v", keys, err)
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	st := openTemp(t)
	bad := []string{
		"",
		"short",
		"../../../../etc/passwd",
		// Right length, wrong alphabet (upper hex, path bytes).
		"AAAA567890abcdef1234567890abcdef1234567890abcdef1234567890abcdef",
		"../.567890abcdef1234567890abcdef1234567890abcdef1234567890abcdef",
	}
	for _, k := range bad {
		if err := st.Put(k, &engine.Result{}); err == nil {
			t.Errorf("Put(%q) accepted", k)
		}
		if _, _, err := st.Get(k); err == nil {
			t.Errorf("Get(%q) accepted", k)
		}
		if st.Has(k) {
			t.Errorf("Has(%q) = true", k)
		}
	}
}

func TestGetCorruptEntry(t *testing.T) {
	st := openTemp(t)
	key := "00" + "ab"[0:0] + "12345678901234567890123456789012345678901234567890123456789012"
	if err := validKey(key); err != nil {
		t.Fatal(err)
	}
	p := st.objectPath(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Get(key); err == nil {
		t.Fatal("corrupt entry returned without error")
	}
}

// TestRunSpecCacheRoundTrip is the acceptance criterion of the redesign: a
// second run of the same spec against a warm store performs zero engine
// runs and returns byte-identical results.
func TestRunSpecCacheRoundTrip(t *testing.T) {
	st := openTemp(t)
	cold, coldRS, coldStats, err := RunSpec(st, 0, quickSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.Hits != 0 || coldStats.Misses != len(cold) {
		t.Fatalf("cold stats = %+v, want 0 hits / %d misses", coldStats, len(cold))
	}
	n, err := st.Len()
	if err != nil || n != len(cold) {
		t.Fatalf("store holds %d entries (%v), want %d", n, err, len(cold))
	}

	var mu sync.Mutex
	observed := map[int]bool{} // index -> cached
	warm, warmRS, warmStats, err := RunSpec(st, 0, quickSpec(), func(i int, r *engine.Result, cached bool) {
		mu.Lock()
		observed[i] = cached
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.Misses != 0 || warmStats.Hits != len(warm) {
		t.Fatalf("warm stats = %+v, want %d hits / 0 misses (zero engine runs)", warmStats, len(warm))
	}
	for i := range warm {
		if cached, ok := observed[i]; !ok || !cached {
			t.Fatalf("warm point %d observed cached=%v ok=%v, want true", i, cached, ok)
		}
		if cold[i].Key != warm[i].Key {
			t.Fatalf("point %d re-keyed across runs", i)
		}
		cb, _ := json.Marshal(coldRS[i])
		wb, _ := json.Marshal(warmRS[i])
		if string(cb) != string(wb) {
			t.Fatalf("point %d cached result not byte-identical:\ncold %s\nwarm %s", i, cb, wb)
		}
	}
}

// TestShardedBatchServedFromSerialCache: engine_shards stays out of point
// keys, so a batch at 2 shards on a store that a serial batch filled runs
// no engine and returns the serial Results.
func TestShardedBatchServedFromSerialCache(t *testing.T) {
	st := openTemp(t)
	pts, err := quickSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	serial, _, err := RunPoints(st, 0, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	sharded := make([]spec.Point, len(pts))
	for i, pt := range pts {
		pt.Config.EngineShards = 2
		sharded[i] = pt
	}
	rs, stats, err := RunPoints(st, 0, sharded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits != len(pts) || stats.Misses != 0 {
		t.Fatalf("sharded batch on a serial store: %+v, want %d hits / 0 misses", stats, len(pts))
	}
	for i := range rs {
		a, _ := json.Marshal(serial[i])
		b, _ := json.Marshal(rs[i])
		if string(a) != string(b) {
			t.Fatalf("point %d: cached Result differs from the serial run:\n%s\n%s", i, a, b)
		}
	}
}

// TestRunSpecPartialWarm: adding an axis point re-runs only the new point.
func TestRunSpecPartialWarm(t *testing.T) {
	st := openTemp(t)
	if _, _, _, err := RunSpec(st, 0, quickSpec(), nil); err != nil {
		t.Fatal(err)
	}
	s := quickSpec()
	s.Axes[0].Points = append(s.Axes[0].Points,
		spec.ConfigPoint("seed=3", map[string]any{"seed": 3}))
	_, _, stats, err := RunSpec(st, 0, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits != 2 || stats.Misses != 1 {
		t.Fatalf("incremental stats = %+v, want 2 hits / 1 miss", stats)
	}
}

// TestRunParamsNilStore: RunPoints with no store runs every point and
// caches nothing — identical results, all misses.
func TestRunParamsNilStore(t *testing.T) {
	pts, err := quickSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	rs, stats, err := RunPoints(nil, 0, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits != 0 || stats.Misses != len(pts) {
		t.Fatalf("nil-store stats = %+v, want all misses", stats)
	}
	for i, r := range rs {
		if r == nil {
			t.Fatalf("nil result at %d", i)
		}
	}
}

// TestRunPointsKeysFromInputs: RunPoints files each Result under the key
// of the point's own Config and Traffic, not under a stale or forged
// Point.Key, so one point cannot overwrite another's cache entry.
func TestRunPointsKeysFromInputs(t *testing.T) {
	st := openTemp(t)
	pts, err := quickSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := pts[1].Key
	pts[1].Key = pts[0].Key
	rs, _, err := RunPoints(st, 0, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range []string{pts[0].Key, want} {
		got, ok, err := st.Get(key)
		if err != nil || !ok {
			t.Fatalf("point %d not stored under its own key: ok=%v err=%v", i, ok, err)
		}
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(rs[i])
		if string(gb) != string(wb) {
			t.Fatalf("key of point %d holds another point's Result", i)
		}
	}
}

// TestVersionBumpRecomputes: entries written under another engine version
// are simply never addressed — a warm store goes fully cold on a bump.
func TestVersionBumpRecomputes(t *testing.T) {
	st := openTemp(t)
	pts, err := quickSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		old, err := spec.PointKeyVersioned(pt.Config, pt.Traffic, "wimc-engine/0-previous")
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(old, &engine.Result{InjectedPackets: 1}); err != nil {
			t.Fatal(err)
		}
	}
	_, stats, err := RunPoints(st, 0, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits != 0 || stats.Misses != len(pts) {
		t.Fatalf("stats after version bump = %+v, want all misses", stats)
	}
}
