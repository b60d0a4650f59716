package engine

import (
	"fmt"
	"runtime"
	"testing"

	"wimc/internal/config"
)

// TestOneShardWiring pins the serial engine as the one-shard case of the
// sharded engine, on the same deferral path. engine_shards 0 and 1, and
// FullTick at engine_shards 4, must build exactly one shard with no link in
// mailbox mode; stepping it must start a barrier with no worker goroutine
// (FullTick's reference loop starts none at all). A two-shard engine is
// the control: it has mailbox links and one worker. At every shard count
// both per-shard phases are bound, every step must leave every shard's op
// and event logs empty, and the collector must match the endpoints'
// ejection counts, so each step replayed all it logged. Run stops the
// barrier again on return.
func TestOneShardWiring(t *testing.T) {
	// Adaptive routing plus the fault model gives every NI event kind a
	// consumer (delivery, route classification, watchdog injection) on a
	// wireless fabric with sub-channels.
	cfg := config.MustXCYM(4, 4, config.ArchHybrid)
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 600
	cfg.Channel = config.ChannelExclusive
	cfg.ChannelAssign = config.AssignSpatialReuse
	cfg.WirelessChannels = 2
	cfg.RouteSelectMode = config.SelectAdaptive
	cfg.WirelessPER = 0.02
	tr := TrafficSpec{Kind: TrafficUniform, Rate: 0.05, MemFraction: 0.3, MemReadFraction: 0.5}

	for _, tc := range []struct {
		shards   int
		fullTick bool
		want     int
	}{
		{shards: 0, want: 1},
		{shards: 1, want: 1},
		{shards: 4, fullTick: true, want: 1},
		{shards: 2, want: 2},
	} {
		t.Run(fmt.Sprintf("shards%d/fulltick=%v", tc.shards, tc.fullTick), func(t *testing.T) {
			c := cfg
			c.EngineShards = tc.shards
			e, err := New(Params{Cfg: c, Traffic: tr, fullTick: tc.fullTick})
			if err != nil {
				t.Fatal(err)
			}
			defer e.stopShards()
			if len(e.shards) != tc.want {
				t.Fatalf("built %d shards, want %d", len(e.shards), tc.want)
			}
			mailboxes := 0
			for _, l := range e.links {
				if l.Mailboxed() {
					mailboxes++
				}
			}
			if (tc.want == 1) != (mailboxes == 0) {
				t.Fatalf("%d links in mailbox mode on %d shards", mailboxes, tc.want)
			}
			if e.pipelinePhase == nil || e.endpointPhase == nil {
				t.Fatal("per-shard phases not bound")
			}

			for stop := c.WarmupCycles + c.MeasureCycles/2; e.now < stop; e.now++ {
				e.step()
				for si, s := range e.shards {
					if len(s.ops) != 0 || len(s.events) != 0 {
						t.Fatalf("cycle %d: shard %d kept %d fabric ops and %d endpoint events after the step",
							e.now, si, len(s.ops), len(s.events))
					}
				}
				var ejected int64
				for _, ep := range e.endpoints {
					ejected += ep.Ejected
				}
				if ejected != e.coll.TotalDelivered {
					t.Fatalf("cycle %d: endpoints ejected %d packets, collector saw %d",
						e.now, ejected, e.coll.TotalDelivered)
				}
			}
			switch {
			case tc.fullTick:
				if e.barrier != nil {
					t.Fatal("the full-tick reference loop started the barrier")
				}
			case e.barrier == nil:
				t.Fatal("stepped without starting the barrier")
			case len(e.barrier.jobs) != tc.want-1:
				t.Fatalf("barrier runs %d worker goroutines on %d shards, want %d",
					len(e.barrier.jobs), tc.want, tc.want-1)
			}

			r, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if e.barrier != nil {
				t.Fatal("barrier left started after Run")
			}
			// The probes above saw real work: packets delivered, flits
			// crossed the wireless fabric, the selector classified.
			var wireless int64
			for _, w := range e.fabric.WIs() {
				wireless += w.TxFlits
			}
			if r.DeliveredPackets == 0 || wireless == 0 || len(r.RouteClassPackets) == 0 {
				t.Fatalf("vacuous run: %d delivered, %d wireless flits, route classes %v",
					r.DeliveredPackets, wireless, r.RouteClassPackets)
			}
		})
	}
}

// TestStepAllocatesNothing asserts that a saturated 16-chip package,
// stepped after its warm-up on one shard and on two, with and without a
// wireless fabric, makes fewer heap allocations than it takes steps:
// packets recycle through the pool, refused packets are never built, the
// per-shard phases are bound once at build, the logs and the replays'
// scratch keep their backing arrays, the replays sort in place and the WI
// TX queues keep their backing arrays. It does not assert zero: the
// lazily sized buffers (sim.Queue high-water marks, VA scratch, source
// queues, the packet pool) still grow on first touch for thousands of
// cycles, a few hundred allocations per 500-step window at cycle 2,000.
// The exact count is logged.
func TestStepAllocatesNothing(t *testing.T) {
	tr := TrafficSpec{Kind: TrafficUniform, Rate: 1.0, MemFraction: 0.2}
	for _, arch := range []config.Architecture{config.ArchWireless, config.ArchInterposer} {
		for _, shards := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/shards%d", arch, shards), func(t *testing.T) {
				cfg := config.MustXCYM(16, 16, arch)
				cfg.WarmupCycles = 1000
				cfg.MeasureCycles = 4000
				cfg.EngineShards = shards
				e, err := New(Params{Cfg: cfg, Traffic: tr})
				if err != nil {
					t.Fatal(err)
				}
				defer e.stopShards()
				for ; e.now < 2000; e.now++ {
					e.step()
				}
				const steps = 500
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < steps; i++ {
					e.step()
					e.now++
				}
				runtime.ReadMemStats(&after)
				mallocs := after.Mallocs - before.Mallocs
				t.Logf("%d heap allocations over %d steps from cycle 2000", mallocs, steps)
				if mallocs >= steps {
					t.Fatalf("%d heap allocations over %d steps, want fewer than one per step", mallocs, steps)
				}
			})
		}
	}
}
