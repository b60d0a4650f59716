package exp

import (
	"encoding/json"
	"testing"

	"wimc/internal/config"
	"wimc/internal/engine"
)

func quickParams(rate float64, seed uint64) engine.Params {
	cfg := config.MustXCYM(4, 4, config.ArchWireless)
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 700
	cfg.Seed = seed
	return engine.Params{
		Cfg:     cfg,
		Traffic: engine.TrafficSpec{Kind: engine.TrafficUniform, Rate: rate, MemFraction: 0.2},
	}
}

// run is RunIndexed without the failing index.
func run(workers int, ps []engine.Params) ([]*engine.Result, error) {
	rs, _, err := RunIndexed(workers, ps)
	return rs, err
}

// TestParallelMatchesSequential is the runner's determinism contract: the
// same batch run with 1 worker and with many workers yields byte-identical
// results in the same order.
func TestParallelMatchesSequential(t *testing.T) {
	var ps []engine.Params
	for i, rate := range []float64{0.0005, 0.001, 0.002, 0.004} {
		ps = append(ps, quickParams(rate, uint64(i+1)))
	}
	seq, err := run(1, ps)
	if err != nil {
		t.Fatal(err)
	}
	par, err := run(8, ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(ps) || len(par) != len(ps) {
		t.Fatalf("lengths %d/%d, want %d", len(seq), len(par), len(ps))
	}
	for i := range ps {
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
	ps := []engine.Params{quickParams(rates[0], 1), quickParams(rates[1], 1)}
	rs, err := run(2, ps)
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
	good := quickParams(0.001, 1)
	bad := quickParams(0.001, 1)
	bad.Cfg.VCs = 0 // invalid
	bad2 := quickParams(0.001, 1)
	bad2.Cfg.ClockGHz = -1 // invalid, different message
	ps := []engine.Params{good, bad, bad2, good}
	_, idx, err := RunIndexed(4, ps)
	if err == nil {
		t.Fatal("invalid config did not fail")
	}
	if idx != 1 {
		t.Fatalf("error reported at index %d, want 1", idx)
	}
	wantErr := func() string {
		_, e := engine.Run(bad)
		return e.Error()
	}()
	if err.Error() != wantErr {
		t.Fatalf("got error %q, want lowest-index error %q", err, wantErr)
	}
}

// TestRunEmptyBatch: an empty batch is a clean no-op at any worker count
// (regression: a budget division once panicked on len(params) == 0).
func TestRunEmptyBatch(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		rs, idx, err := RunIndexed(workers, nil)
		if err != nil || idx != -1 || len(rs) != 0 {
			t.Fatalf("workers=%d: rs=%v idx=%d err=%v", workers, rs, idx, err)
		}
	}
}

// TestFastForwardRunsUnderPool nests the event-horizon fast-forward inside
// the runner's inter-run parallelism: a skip-heavy phased application
// workload runs serial and sharded, with fast-forward on and off,
// concurrently through the pool. Every fast-forwarded run must skip a
// nonzero number of idle cycles and — telemetry aside — stay byte-identical
// to its every-cycle twin. Short-mode friendly so the CI race job drives
// the sharded skip decision and resume path under the race detector.
func TestFastForwardRunsUnderPool(t *testing.T) {
	base := config.MustXCYM(4, 4, config.ArchWireless)
	base.WarmupCycles = 100
	base.MeasureCycles = 4000
	base.DrainCycles = 500
	shardCounts := []int{0, 1, 2, 4}
	var ps []engine.Params
	for _, n := range shardCounts {
		cfg := base
		cfg.EngineShards = n
		for _, everyCycle := range []bool{false, true} {
			ps = append(ps, engine.Params{
				Cfg:        cfg,
				Traffic:    engine.TrafficSpec{Kind: engine.TrafficApp, App: "collective"},
				EveryCycle: everyCycle,
			})
		}
	}
	rs, err := run(len(ps), ps)
	if err != nil {
		t.Fatal(err)
	}
	canon := func(r *engine.Result) string {
		c := *r
		c.IdleCyclesSkipped = 0
		c.DrainCyclesUsed = 0
		c.DrainCyclesConfigured = 0
		b, _ := json.Marshal(&c)
		return string(b)
	}
	for i, n := range shardCounts {
		ff, ec := rs[2*i], rs[2*i+1]
		if ff.IdleCyclesSkipped == 0 {
			t.Errorf("shards=%d: fast-forward run under the pool skipped no cycles", n)
		}
		if ec.IdleCyclesSkipped != 0 {
			t.Errorf("shards=%d: every-cycle run reported %d skipped cycles", n, ec.IdleCyclesSkipped)
		}
		if a, b := canon(ff), canon(ec); a != b {
			t.Errorf("shards=%d: fast-forward diverged from every-cycle under the pool:\n%s\n%s", n, a, b)
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
	var ps []engine.Params
	for _, n := range shardCounts {
		cfg := base
		cfg.EngineShards = n
		ps = append(ps, engine.Params{
			Cfg:     cfg,
			Traffic: engine.TrafficSpec{Kind: engine.TrafficUniform, Rate: 1.0, MemFraction: 0.2, PacketFlits: 16},
		})
	}
	rs, err := run(len(ps), ps)
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
