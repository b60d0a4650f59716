package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"wimc/internal/config"
	"wimc/internal/engine"
	"wimc/internal/spec"
)

func quickPoint(rate float64, seed uint64) spec.Point {
	cfg := config.MustXCYM(4, 4, config.ArchWireless)
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 700
	cfg.Seed = seed
	return spec.Point{
		Config:  cfg,
		Traffic: engine.TrafficSpec{Kind: engine.TrafficUniform, Rate: rate, MemFraction: 0.2},
	}
}

// TestParallelMatchesSequential is the runner's determinism contract: the
// same batch run with 1 worker and with many workers yields byte-identical
// results in the same order, and the observer, called from the workers,
// sees each run exactly once.
func TestParallelMatchesSequential(t *testing.T) {
	var pts []spec.Point
	for i, rate := range []float64{0.0005, 0.001, 0.002, 0.004} {
		pts = append(pts, quickPoint(rate, uint64(i+1)))
	}
	seq, _, err := RunPoints(nil, 1, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	observed := map[int]*engine.Result{}
	par, _, err := RunPoints(nil, 8, pts, func(i int, r *engine.Result, cached bool) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := observed[i]; dup || cached {
			t.Errorf("point %d observed again or as cached (cached=%v)", i, cached)
		}
		observed[i] = r
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(pts) || len(par) != len(pts) || len(observed) != len(pts) {
		t.Fatalf("lengths %d/%d, %d observed, want %d", len(seq), len(par), len(observed), len(pts))
	}
	for i := range pts {
		if observed[i] != par[i] {
			t.Fatalf("point %d: observed Result is not the returned one", i)
		}
		a, _ := json.Marshal(seq[i])
		b, _ := json.Marshal(par[i])
		if string(a) != string(b) {
			t.Fatalf("run %d diverged between 1 and 8 workers:\n%s\n%s", i, a, b)
		}
	}
}

// TestRunOrderPreserved checks results land at their input index (each run
// carries a distinguishable rate).
func TestRunOrderPreserved(t *testing.T) {
	rates := []float64{0.0005, 0.004}
	pts := []spec.Point{quickPoint(rates[0], 1), quickPoint(rates[1], 1)}
	rs, _, err := RunPoints(nil, 2, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].GeneratedPackets >= rs[1].GeneratedPackets {
		t.Fatalf("results out of order: rate %v generated %d, rate %v generated %d",
			rates[0], rs[0].GeneratedPackets, rates[1], rs[1].GeneratedPackets)
	}
}

// TestLowestIndexErrorWins: a failing run reports its error regardless of
// scheduling, and the lowest failing index is the one reported.
func TestLowestIndexErrorWins(t *testing.T) {
	good := quickPoint(0.001, 1)
	bad := quickPoint(0.001, 1)
	bad.Config.VCs = 0 // invalid
	bad2 := quickPoint(0.001, 1)
	bad2.Config.ClockGHz = -1 // invalid, different message
	pts := []spec.Point{good, bad, bad2, good}
	_, _, err := RunPoints(nil, 4, pts, nil)
	if err == nil {
		t.Fatal("invalid config did not fail")
	}
	_, runErr := engine.Run(bad.Params())
	want := fmt.Sprintf("store: point 1 (%s): %v", bad.Config.Name, runErr)
	if err.Error() != want {
		t.Fatalf("got error %q, want lowest-index error %q", err, want)
	}
}

// TestRunEmptyBatch: an empty batch is a clean no-op at any worker count
// (regression: a budget division once panicked on an empty batch).
func TestRunEmptyBatch(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		rs, stats, err := RunPoints(nil, workers, nil, nil)
		if err != nil || len(rs) != 0 || stats != (Stats{}) {
			t.Fatalf("workers=%d: rs=%v stats=%+v err=%v", workers, rs, stats, err)
		}
	}
}

// TestShardedRunsUnderPool nests intra-run sharding inside the runner's
// inter-run parallelism: one faulty 4-chip configuration (distance-scaled
// PER, a WI fail-stop, adaptive failover routing) runs at shard counts
// 0/1/2/4 concurrently through the pool, and every sharded run must be
// byte-identical to the serial one. Short-mode friendly so the CI race
// job drives the sharded engine's barrier, mailboxes and deferred-replay
// logs under the race detector.
func TestShardedRunsUnderPool(t *testing.T) {
	base := config.MustXCYM(4, 4, config.ArchHybrid)
	base.WarmupCycles = 100
	base.MeasureCycles = 600
	base.Channel = config.ChannelExclusive
	base.ChannelAssign = config.AssignSpatialReuse
	base.WirelessChannels = 2
	base.RouteSelectMode = config.SelectAdaptive
	base.WirelessPER = 0.02
	base.FaultSchedule = []config.FaultEvent{
		{Cycle: 150, Kind: config.FaultWIFail, WI: 2},
	}
	shardCounts := []int{0, 1, 2, 4}
	var pts []spec.Point
	for _, n := range shardCounts {
		cfg := base
		cfg.EngineShards = n
		pts = append(pts, spec.Point{
			Config:  cfg,
			Traffic: engine.TrafficSpec{Kind: engine.TrafficUniform, Rate: 1.0, MemFraction: 0.2, PacketFlits: 16},
		})
	}
	rs, _, err := RunPoints(nil, len(pts), pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	serial, _ := json.Marshal(rs[0])
	for i, n := range shardCounts[1:] {
		got, _ := json.Marshal(rs[i+1])
		if string(got) != string(serial) {
			t.Fatalf("shards=%d under the pool diverged from serial:\n%s\n%s", n, serial, got)
		}
	}
}

// TestRunPointsReportsPutFailure: a Result that cannot be stored fails the
// batch with an error naming its point, and the observer never sees it.
func TestRunPointsReportsPutFailure(t *testing.T) {
	st := openTemp(t)
	pts := []spec.Point{quickPoint(0.001, 1)}
	key, err := spec.PointKey(pts[0].Config, pts[0].Traffic)
	if err != nil {
		t.Fatal(err)
	}
	// A dangling symlink where the key's object directory belongs reads
	// as a miss but cannot be created, so Get succeeds and Put fails.
	if err = os.Symlink("missing", filepath.Join(st.Dir(), "objects", key[:2])); err != nil {
		t.Fatal(err)
	}
	_, _, err = RunPoints(st, 1, pts, func(i int, r *engine.Result, cached bool) {
		t.Errorf("point %d observed although its Put failed", i)
	})
	if err == nil || !strings.HasPrefix(err.Error(), "store: point 0 (") || !strings.Contains(err.Error(), "put "+key) {
		t.Fatalf("got error %v, want a put failure naming point 0", err)
	}
}
