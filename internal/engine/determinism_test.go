package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"wimc/internal/config"
	"wimc/internal/core"
	"wimc/internal/exp/pool"
)

// resultJSON canonicalizes a Result for byte comparison. The fast-forward
// telemetry counters are zeroed first: they describe how the run executed
// (how many provably idle cycles were skipped), not what it simulated, and
// are the only Result fields allowed to differ between a fast-forwarded
// run and its every-cycle reference.
func resultJSON(t *testing.T, r *Result) string {
	t.Helper()
	c := *r
	c.IdleCyclesSkipped = 0
	c.DrainCyclesUsed = 0
	c.DrainCyclesConfigured = 0
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// determinismParams covers the scheduling-sensitive machinery: wireless
// crossbar arbitration, sleep gating, memory read round trips (the reply
// heap) and enough load that switches, links and endpoints all cycle
// through active and idle states.
func determinismParams() []Params {
	wireless := config.MustXCYM(4, 4, config.ArchWireless)
	wireless.WarmupCycles = 200
	wireless.MeasureCycles = 1500
	wireless.DrainCycles = 500

	reads := wireless
	reads.Name = "reads"

	exclusive := config.MustXCYM(4, 4, config.ArchWireless)
	exclusive.WarmupCycles = 100
	exclusive.MeasureCycles = 800
	exclusive.Channel = config.ChannelExclusive
	exclusive.WirelessChannels = 1

	// Multi-sub-channel exclusive fabrics: WI groups interleaved by index
	// and grouped by grid zone, each channel running its own turn machine.
	partitioned := config.MustXCYM(4, 4, config.ArchWireless)
	partitioned.Name = "partitioned"
	partitioned.WarmupCycles = 100
	partitioned.MeasureCycles = 800
	partitioned.Channel = config.ChannelExclusive
	partitioned.ChannelAssign = config.AssignStaticPartition
	partitioned.WirelessChannels = 2

	spatial := config.MustXCYM(4, 4, config.ArchWireless)
	spatial.Name = "spatial"
	spatial.WarmupCycles = 100
	spatial.MeasureCycles = 800
	spatial.Channel = config.ChannelExclusive
	spatial.ChannelAssign = config.AssignSpatialReuse
	spatial.WirelessChannels = 4

	tokenMulti := config.MustXCYM(4, 4, config.ArchWireless)
	tokenMulti.Name = "token-multi"
	tokenMulti.WarmupCycles = 100
	tokenMulti.MeasureCycles = 800
	tokenMulti.Channel = config.ChannelExclusive
	tokenMulti.MAC = config.MACToken
	tokenMulti.TXBufferFlits = tokenMulti.PacketFlits
	tokenMulti.ChannelAssign = config.AssignStaticPartition
	tokenMulti.WirelessChannels = 3

	// Work-conserving arbitration policies on multi-sub-channel fabrics:
	// the turn queues, drain-aware optimistic announcements and weighted
	// deficit retention all mutate scheduling-sensitive MAC state.
	skipEmpty := config.MustXCYM(4, 4, config.ArchWireless)
	skipEmpty.Name = "skip-empty"
	skipEmpty.WarmupCycles = 100
	skipEmpty.MeasureCycles = 800
	skipEmpty.Channel = config.ChannelExclusive
	skipEmpty.ChannelAssign = config.AssignStaticPartition
	skipEmpty.WirelessChannels = 2
	skipEmpty.MACPolicyMode = config.PolicySkipEmpty

	drainAware := config.MustXCYM(4, 4, config.ArchWireless)
	drainAware.Name = "drain-aware"
	drainAware.WarmupCycles = 100
	drainAware.MeasureCycles = 800
	drainAware.Channel = config.ChannelExclusive
	drainAware.ChannelAssign = config.AssignSpatialReuse
	drainAware.WirelessChannels = 2
	drainAware.MACPolicyMode = config.PolicyDrainAware

	weighted := config.MustXCYM(4, 4, config.ArchWireless)
	weighted.Name = "weighted"
	weighted.WarmupCycles = 100
	weighted.MeasureCycles = 800
	weighted.Channel = config.ChannelExclusive
	weighted.ChannelAssign = config.AssignStaticPartition
	weighted.WirelessChannels = 2
	weighted.MACPolicyMode = config.PolicyWeighted

	tokenSkip := config.MustXCYM(4, 4, config.ArchWireless)
	tokenSkip.Name = "token-skip-empty"
	tokenSkip.WarmupCycles = 100
	tokenSkip.MeasureCycles = 800
	tokenSkip.Channel = config.ChannelExclusive
	tokenSkip.MAC = config.MACToken
	tokenSkip.TXBufferFlits = tokenSkip.PacketFlits
	tokenSkip.ChannelAssign = config.AssignStaticPartition
	tokenSkip.WirelessChannels = 2
	tokenSkip.MACPolicyMode = config.PolicySkipEmpty

	// Adaptive route selection on the hybrid: injection-time classification
	// reads live WI/turn-queue/credit state, so both the selector decisions
	// and the per-class forwarding lookups are scheduling-sensitive.
	adaptive := config.MustXCYM(4, 4, config.ArchHybrid)
	adaptive.Name = "adaptive"
	adaptive.WarmupCycles = 100
	adaptive.MeasureCycles = 800
	adaptive.Channel = config.ChannelExclusive
	adaptive.ChannelAssign = config.AssignSpatialReuse
	adaptive.WirelessChannels = 2
	adaptive.MACPolicyMode = config.PolicySkipEmpty
	adaptive.RouteSelectMode = config.SelectAdaptive

	ber := config.MustXCYM(4, 4, config.ArchWireless)
	ber.WarmupCycles = 100
	ber.MeasureCycles = 800
	ber.WirelessBER = 0.001

	// Fault-model configurations: the distance-scaled PER curve with NACK
	// retransmission and backoff, a transient sub-channel outage window,
	// and a permanent WI fail-stop with wired-class failover all mutate
	// scheduling-sensitive MAC and selector state and must stay
	// byte-identical across runs and scheduling paths.
	per := config.MustXCYM(4, 4, config.ArchWireless)
	per.Name = "per"
	per.WarmupCycles = 100
	per.MeasureCycles = 800
	per.Channel = config.ChannelExclusive
	per.ChannelAssign = config.AssignSpatialReuse
	per.WirelessChannels = 2
	per.WirelessPER = 0.05
	per.WirelessRetryLimit = 4

	outage := config.MustXCYM(4, 4, config.ArchWireless)
	outage.Name = "outage"
	outage.WarmupCycles = 100
	outage.MeasureCycles = 800
	outage.Channel = config.ChannelExclusive
	outage.ChannelAssign = config.AssignStaticPartition
	outage.WirelessChannels = 2
	outage.FaultSchedule = []config.FaultEvent{
		{Cycle: 150, Kind: config.FaultOutage, SubChannel: 1, Duration: 200},
	}

	wifail := config.MustXCYM(4, 4, config.ArchHybrid)
	wifail.Name = "wifail"
	wifail.WarmupCycles = 100
	wifail.MeasureCycles = 800
	wifail.Channel = config.ChannelExclusive
	wifail.ChannelAssign = config.AssignSpatialReuse
	wifail.WirelessChannels = 2
	wifail.RouteSelectMode = config.SelectAdaptive
	wifail.WirelessPER = 0.02
	wifail.FaultSchedule = []config.FaultEvent{
		{Cycle: 150, Kind: config.FaultWIFail, WI: 2},
	}

	// Skip-heavy configurations for the event-horizon fast-forward: a
	// phased application profile whose long provably-silent compute/wait
	// phases dominate the run, and a turn-queue exclusive fabric whose
	// sub-channels spend most of the drain window frozen inside an outage.
	// Both ride the full matrix (same-seed, full-tick, shard-count) and
	// TestFastForwardByteIdentical additionally asserts they actually skip.
	phased := config.MustXCYM(4, 4, config.ArchWireless)
	phased.Name = "phased"
	phased.WarmupCycles = 200
	phased.MeasureCycles = 9000
	phased.DrainCycles = 2000

	longOutage := config.MustXCYM(4, 4, config.ArchWireless)
	longOutage.Name = "long-outage"
	longOutage.WarmupCycles = 100
	longOutage.MeasureCycles = 2000
	longOutage.DrainCycles = 3000
	longOutage.Channel = config.ChannelExclusive
	longOutage.ChannelAssign = config.AssignStaticPartition
	longOutage.WirelessChannels = 2
	// The rotate policy keeps every member queued and burns control energy
	// every turn, so it never fast-forwards; the other policies go idle
	// when nothing is queued, which is what lets the frozen outage window
	// skip.
	longOutage.MACPolicyMode = config.PolicySkipEmpty
	// Deep TX buffers park the whole outage backlog inside the WIs: with
	// the stock 16-flit buffers the backlog wormholes back into the mesh
	// and the blocked switches spin in the active sets (correct, but then
	// nothing can be skipped — retried arbitration is real work).
	longOutage.TXBufferFlits = 4096
	longOutage.FaultSchedule = []config.FaultEvent{
		{Cycle: 1900, Kind: config.FaultOutage, SubChannel: 0, Duration: 2000},
		{Cycle: 1900, Kind: config.FaultOutage, SubChannel: 1, Duration: 2000},
	}

	wired := config.MustXCYM(4, 4, config.ArchInterposer)
	wired.WarmupCycles = 200
	wired.MeasureCycles = 1500

	// A generalized large preset: 256 cores through the topology builder,
	// parallel routing-table fill and the active-set scheduler.
	large := config.MustXCYM(16, 16, config.ArchWireless)
	large.WarmupCycles = 100
	large.MeasureCycles = 600

	// Loaded exclusive fabrics: the low-rate entries above deliver a
	// handful of packets each, so these run every turn machine at rate
	// 1.0 with 16-flit packets, where turns announce, stall, retain and
	// rotate under contention.
	loaded := func(name string, mac config.MACMode, assign config.ChannelAssignment, k int,
		policy config.MACPolicy) config.Config {
		c := config.MustXCYM(4, 4, config.ArchWireless)
		c.Name = name
		c.WarmupCycles = 100
		c.MeasureCycles = 800
		c.Channel = config.ChannelExclusive
		c.MAC = mac
		if mac == config.MACToken {
			c.TXBufferFlits = c.PacketFlits
		}
		c.ChannelAssign = assign
		c.WirelessChannels = k
		c.MACPolicyMode = policy
		return c
	}
	rotateLoaded := loaded("rotate-loaded", config.MACControlPacket, config.AssignSpatialReuse, 2, config.PolicyRotate)
	tokenRotateLoaded := loaded("token-rotate-loaded", config.MACToken, config.AssignStaticPartition, 2, config.PolicyRotate)
	drainAwareLoaded := loaded("drain-aware-loaded", config.MACControlPacket, config.AssignSpatialReuse, 2, config.PolicyDrainAware)
	tokenWeightedLoaded := loaded("token-weighted-loaded", config.MACToken, config.AssignStaticPartition, 2, config.PolicyWeighted)
	skipEmptyLoaded := loaded("skip-empty-loaded", config.MACControlPacket, config.AssignSingle, 1, config.PolicySkipEmpty)
	saturated := TrafficSpec{Kind: TrafficUniform, Rate: 1.0, MemFraction: 0.2, PacketFlits: 16}

	// Loaded crossbars: the low-rate BER and 16-chip entries above deliver
	// a few dozen packets, so these run the flit-error retransmission path
	// and the 16-chip crossbar at the same saturated load.
	berLoaded := config.MustXCYM(4, 4, config.ArchWireless)
	berLoaded.Name = "ber-loaded"
	berLoaded.WarmupCycles = 100
	berLoaded.MeasureCycles = 800
	berLoaded.WirelessBER = 0.001

	crossbar16Loaded := config.MustXCYM(16, 16, config.ArchWireless)
	crossbar16Loaded.Name = "crossbar16-loaded"
	crossbar16Loaded.WarmupCycles = 100
	crossbar16Loaded.MeasureCycles = 600

	// A loaded hybrid under static route selection: both class tables
	// are built and installed, no selector exists, and every packet rides
	// class 0.
	hybridStaticLoaded := config.MustXCYM(4, 4, config.ArchHybrid)
	hybridStaticLoaded.Name = "hybrid-static-loaded"
	hybridStaticLoaded.WarmupCycles = 100
	hybridStaticLoaded.MeasureCycles = 800
	hybridStaticLoaded.Channel = config.ChannelExclusive
	hybridStaticLoaded.ChannelAssign = config.AssignSpatialReuse
	hybridStaticLoaded.WirelessChannels = 4
	hybridStaticLoaded.MACPolicyMode = config.PolicySkipEmpty
	hybridStaticLoaded.RouteSelectMode = config.SelectStatic

	// A loaded fault model: at PER 0.5 with a retry budget of one, head
	// flits exhaust their budget under contention, so retry-exhausted drops
	// and the transceiver-side consumption of their straggler flits run
	// at load (the low-rate per entry above drops nothing).
	perLoaded := loaded("per-loaded", config.MACControlPacket, config.AssignSpatialReuse, 2, config.PolicySkipEmpty)
	perLoaded.WirelessPER = 0.5
	perLoaded.WirelessRetryLimit = 1

	return []Params{
		{Cfg: large, Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.002, MemFraction: 0.2}},
		{Cfg: wireless, Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.002, MemFraction: 0.2}},
		{Cfg: reads, Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.001, MemFraction: 0.5, MemReadFraction: 1.0}},
		{Cfg: exclusive, Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.0003, MemFraction: 0.2}},
		{Cfg: partitioned, Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.0005, MemFraction: 0.2}},
		{Cfg: spatial, Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.0005, MemFraction: 0.2}},
		{Cfg: tokenMulti, Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.0003, MemFraction: 0.2}},
		{Cfg: skipEmpty, Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.0005, MemFraction: 0.2}},
		{Cfg: drainAware, Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.0005, MemFraction: 0.2}},
		{Cfg: weighted, Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.0005, MemFraction: 0.2}},
		{Cfg: tokenSkip, Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.0003, MemFraction: 0.2}},
		{Cfg: adaptive, Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 1.0, MemFraction: 0.2, PacketFlits: 16}},
		{Cfg: ber, Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.0005, MemFraction: 0.2}},
		{Cfg: per, Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.0005, MemFraction: 0.2}},
		{Cfg: outage, Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.0005, MemFraction: 0.2}},
		{Cfg: wifail, Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 1.0, MemFraction: 0.2, PacketFlits: 16}},
		{Cfg: wired, Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.002, MemFraction: 0.2}},
		{Cfg: phased, Traffic: TrafficSpec{Kind: TrafficApp, App: "collective"}},
		{Cfg: longOutage, Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.0005, MemFraction: 0.2}},
		{Cfg: rotateLoaded, Traffic: saturated},
		{Cfg: tokenRotateLoaded, Traffic: saturated},
		{Cfg: drainAwareLoaded, Traffic: saturated},
		{Cfg: tokenWeightedLoaded, Traffic: saturated},
		{Cfg: skipEmptyLoaded, Traffic: saturated},
		{Cfg: berLoaded, Traffic: saturated},
		{Cfg: crossbar16Loaded, Traffic: saturated},
		{Cfg: hybridStaticLoaded, Traffic: saturated},
		{Cfg: perLoaded, Traffic: saturated},
	}
}

// TestSameSeedByteIdentical runs each configuration twice with the same
// seed and asserts byte-identical Result JSON.
func TestSameSeedByteIdentical(t *testing.T) {
	for _, p := range determinismParams() {
		p := p
		t.Run(p.Cfg.Name+"/"+string(p.Cfg.Channel), func(t *testing.T) {
			a := resultJSON(t, mustRun(t, p))
			b := resultJSON(t, mustRun(t, p))
			if a != b {
				t.Fatalf("same seed, same scheduling path diverged:\n%s\n%s", a, b)
			}
		})
	}
}

// TestActiveSetMatchesFullTick is the determinism regression for the
// active-set scheduler: every configuration must produce byte-identical
// Result JSON under active-set scheduling and under the FullTick reference
// path that ticks every switch, link and endpoint every cycle. This is the
// proof that skipping idle components preserves cycle accuracy, including
// the order of floating-point energy accumulation. FullTick forces one
// shard, so the reference also runs with engine_shards 4 and must not
// move a byte.
func TestActiveSetMatchesFullTick(t *testing.T) {
	for _, p := range determinismParams() {
		p := p
		t.Run(p.Cfg.Name+"/"+string(p.Cfg.Channel), func(t *testing.T) {
			active := p
			active.fullTick = false
			a := resultJSON(t, mustRun(t, active))
			for _, shards := range []int{0, 4} {
				reference := p
				reference.fullTick = true
				reference.Cfg.EngineShards = shards
				b := resultJSON(t, mustRun(t, reference))
				if a != b {
					t.Fatalf("active-set scheduling diverged from full-tick reference (engine_shards=%d):\nactive:    %s\nreference: %s",
						shards, a, b)
				}
			}
		})
	}
}

// TestShardCountByteIdentical is the determinism regression for sharded
// intra-run execution, in the FullTick tradition: every configuration in
// the determinism matrix — baseline meshes, multi-sub-channel MACs, the
// work-conserving policies, adaptive routing and the fault schedules —
// must produce byte-identical Result JSON AND a byte-identical packet
// trace at every shard count. engine_shards 0 and 1 both build the
// one-shard engine (TestOneShardWiring pins its wiring).
func TestShardCountByteIdentical(t *testing.T) {
	for _, p := range determinismParams() {
		p := p
		t.Run(p.Cfg.Name+"/"+string(p.Cfg.Channel), func(t *testing.T) {
			runWith := func(shards int) (string, string) {
				sp := p
				sp.Cfg.EngineShards = shards
				var trace bytes.Buffer
				sp.Trace = &trace
				e, err := New(sp)
				if err != nil {
					t.Fatal(err)
				}
				if shards > 1 && len(e.shards) < 2 {
					t.Fatalf("engine_shards=%d built %d shards", shards, len(e.shards))
				}
				if shards <= 1 && len(e.shards) != 1 {
					t.Fatalf("engine_shards=%d must run as one shard, built %d shards", shards, len(e.shards))
				}
				r, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				if err := e.CheckFlitConservation(); err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if err := e.CheckPipelineInvariants(); err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				return resultJSON(t, r), trace.String()
			}
			serialRes, serialTrace := runWith(0)
			for _, shards := range []int{1, 2, 4, 8} {
				res, tr := runWith(shards)
				if res != serialRes {
					t.Fatalf("shards=%d diverged from serial:\nserial:  %s\nsharded: %s", shards, serialRes, res)
				}
				if tr != serialTrace {
					t.Fatalf("shards=%d packet trace diverged from serial (serial %d bytes, sharded %d bytes)",
						shards, len(serialTrace), len(tr))
				}
			}
		})
	}
}

// TestFastForwardByteIdentical is the determinism regression for the
// event-horizon fast-forward: every configuration in the matrix, at every
// shard count (serial, 1, 2 and 4 shards), must produce byte-identical
// Result JSON AND a byte-identical packet trace with fast-forward enabled
// (the default) and disabled (Params.EveryCycle). The telemetry fields are
// the only sanctioned difference and resultJSON zeroes them. The two
// skip-heavy matrix entries — the phased "collective" application profile
// and the long outage window — must additionally report a nonzero
// idle_cycles_skipped, proving the horizon actually engages rather than
// passing vacuously.
func TestFastForwardByteIdentical(t *testing.T) {
	for _, p := range determinismParams() {
		p := p
		t.Run(p.Cfg.Name+"/"+string(p.Cfg.Channel), func(t *testing.T) {
			for _, shards := range []int{0, 1, 2, 4} {
				runWith := func(everyCycle bool) (*Result, string, string) {
					sp := p
					sp.Cfg.EngineShards = shards
					sp.EveryCycle = everyCycle
					var trace bytes.Buffer
					sp.Trace = &trace
					e, err := New(sp)
					if err != nil {
						t.Fatal(err)
					}
					r, err := e.Run()
					if err != nil {
						t.Fatal(err)
					}
					if err := e.CheckFlitConservation(); err != nil {
						t.Fatalf("shards=%d everyCycle=%v: %v", shards, everyCycle, err)
					}
					if err := e.CheckPipelineInvariants(); err != nil {
						t.Fatalf("shards=%d everyCycle=%v: %v", shards, everyCycle, err)
					}
					return r, resultJSON(t, r), trace.String()
				}
				ff, ffRes, ffTrace := runWith(false)
				ec, ecRes, ecTrace := runWith(true)
				if ec.IdleCyclesSkipped != 0 {
					t.Fatalf("shards=%d: every-cycle run reported %d skipped cycles", shards, ec.IdleCyclesSkipped)
				}
				if ffRes != ecRes {
					t.Fatalf("shards=%d: fast-forward diverged from every-cycle:\nfast-forward: %s\nevery-cycle:  %s",
						shards, ffRes, ecRes)
				}
				if ffTrace != ecTrace {
					t.Fatalf("shards=%d: packet trace diverged (fast-forward %d bytes, every-cycle %d bytes)",
						shards, len(ffTrace), len(ecTrace))
				}
				switch p.Cfg.Name {
				case "phased", "long-outage":
					if ff.IdleCyclesSkipped == 0 {
						t.Fatalf("shards=%d: skip-heavy config skipped no cycles", shards)
					}
				}
			}
		})
	}
}

// TestFastForwardRunsUnderPool nests the event-horizon fast-forward inside
// run-level parallelism: a skip-heavy phased application workload runs
// serial and sharded, with fast-forward on and off, concurrently on the
// worker pool store.RunPoints runs its batches on (EveryCycle is not a
// spec point field, so the runs go to the pool directly). Every
// fast-forwarded run must skip a nonzero number of idle cycles and,
// telemetry aside, stay byte-identical to its every-cycle twin.
// Short-mode friendly so the CI race job drives the sharded skip decision
// and resume path under the race detector.
func TestFastForwardRunsUnderPool(t *testing.T) {
	base := config.MustXCYM(4, 4, config.ArchWireless)
	base.WarmupCycles = 100
	base.MeasureCycles = 4000
	base.DrainCycles = 500
	shardCounts := []int{0, 1, 2, 4}
	var ps []Params
	for _, n := range shardCounts {
		cfg := base
		cfg.EngineShards = n
		for _, everyCycle := range []bool{false, true} {
			ps = append(ps, Params{
				Cfg:        cfg,
				Traffic:    TrafficSpec{Kind: TrafficApp, App: "collective"},
				EveryCycle: everyCycle,
			})
		}
	}
	rs := make([]*Result, len(ps))
	if err := pool.ForEach(len(ps), len(ps), func(i int) error {
		var err error
		rs[i], err = Run(ps[i])
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i, n := range shardCounts {
		ff, ec := rs[2*i], rs[2*i+1]
		if ff.IdleCyclesSkipped == 0 {
			t.Errorf("shards=%d: fast-forward run under the pool skipped no cycles", n)
		}
		if ec.IdleCyclesSkipped != 0 {
			t.Errorf("shards=%d: every-cycle run reported %d skipped cycles", n, ec.IdleCyclesSkipped)
		}
		if a, b := resultJSON(t, ff), resultJSON(t, ec); a != b {
			t.Errorf("shards=%d: fast-forward diverged from every-cycle under the pool:\n%s\n%s", n, a, b)
		}
	}
}

// TestPipelineInvariantsEveryCycleFourShards steps a loaded 16-chip run on
// four shards, with four spatial-reuse sub-channels under skip-empty, cycle
// by cycle and calls CheckPipelineInvariants after every cycle: the
// pipeline masks of every switch, the park/wake membership of every switch
// and NI in its own shard's activity sets, and the MAC protocol state of
// every sub-channel. Membership looked up in the wrong shard's sets, or a
// wake lost on a boundary, shows here within cycles.
func TestPipelineInvariantsEveryCycleFourShards(t *testing.T) {
	cfg := config.MustXCYM(16, 8, config.ArchWireless)
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 400
	cfg.Channel = config.ChannelExclusive
	cfg.ChannelAssign = config.AssignSpatialReuse
	cfg.WirelessChannels = 4
	cfg.MACPolicyMode = config.PolicySkipEmpty
	cfg.EngineShards = 4
	tr := TrafficSpec{Kind: TrafficUniform, Rate: 0.01, MemFraction: 0.3, MemReadFraction: 0.5}
	e, err := New(Params{Cfg: cfg, Traffic: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer e.stopShards()
	if len(e.shards) != 4 {
		t.Fatalf("built %d shards, want 4", len(e.shards))
	}
	total := cfg.WarmupCycles + cfg.MeasureCycles
	for ; e.now < total; e.now++ {
		e.step()
		if err := e.CheckPipelineInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", e.now, err)
		}
	}
	if err := e.CheckFlitConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineInvariantsCheckEverySubChannel: the sub-channels of a
// 16-chip, four-sub-channel, four-shard engine exist as soon as New
// returns, and after the first step, drift planted in any one
// sub-channel's contention counter (a replayed accept that no flit backs)
// must be reported by CheckPipelineInvariants. A sub-channel the check
// skipped would pass unexamined.
func TestPipelineInvariantsCheckEverySubChannel(t *testing.T) {
	cfg := config.MustXCYM(16, 8, config.ArchWireless)
	cfg.Channel = config.ChannelExclusive
	cfg.ChannelAssign = config.AssignSpatialReuse
	cfg.WirelessChannels = 4
	cfg.MACPolicyMode = config.PolicySkipEmpty
	cfg.EngineShards = 4
	tr := TrafficSpec{Kind: TrafficUniform, Rate: 0.01, MemFraction: 0.3}
	for ci := 0; ci < cfg.WirelessChannels; ci++ {
		e, err := New(Params{Cfg: cfg, Traffic: tr})
		if err != nil {
			t.Fatal(err)
		}
		members := e.fabric.SubChannelMembers()
		if len(members) != cfg.WirelessChannels || len(members[ci]) == 0 {
			t.Fatalf("sub-channel members %v after New, want %d populated sub-channels", members, cfg.WirelessChannels)
		}
		e.step()
		e.stopShards()
		if err := e.CheckPipelineInvariants(); err != nil {
			t.Fatalf("healthy engine: %v", err)
		}
		w := e.fabric.WIs()[members[ci][0]]
		e.fabric.ReplayShardOps(e.now, []core.ShardOp{{W: w, Kind: core.OpAccept, First: true}})
		if e.CheckPipelineInvariants() == nil {
			t.Errorf("drift in sub-channel %d went unreported", ci)
		}
	}
}

// BenchmarkShardBarrier measures the per-cycle cost of the sharded
// engine's phase barrier alone: an idle two-phase dispatch across the
// worker pool, the fixed overhead every sharded cycle pays on top of the
// simulation work itself.
func BenchmarkShardBarrier(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("shards-%d", n), func(b *testing.B) {
			bar := newShardBarrier(n)
			defer bar.stop()
			noop := func(int) {}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bar.run(noop) // P1
				bar.run(noop) // P2
			}
		})
	}
}

// BenchmarkShardedTick64 measures raw engine tick throughput on the
// loaded 64-chip wireless system (the ISSUE's shard-speedup workload:
// uniform 0.02 packets/core/cycle, 20% memory traffic), serial vs
// sharded. The system is built once per sub-benchmark; only stepping is
// timed. On a multicore host shards-4 should clear 1.8x the serial
// cycles/s; on a single-core container it instead measures the sharding
// machinery's overhead (barrier dispatch + log replay with no
// parallelism to pay for it).
func BenchmarkShardedTick64(b *testing.B) {
	for _, shards := range []int{0, 2, 4} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			cfg := config.MustXCYM(64, config.DefaultStacks(64), config.ArchWireless)
			cfg.EngineShards = shards
			tr := TrafficSpec{Kind: TrafficUniform, Rate: 0.02, MemFraction: 0.2}
			e, err := New(Params{Cfg: cfg, Traffic: tr})
			if err != nil {
				b.Fatal(err)
			}
			defer e.stopShards()
			// Warm the system so steady-state load, not ramp-up, is timed.
			for ; e.now < 500; e.now++ {
				e.step()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.step()
				e.now++
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
		})
	}
}

// TestPipelineInvariantsEveryCycle steps a loaded wireless system cycle by
// cycle under both scheduling paths and recomputes every switch's
// ready/rcReady masks and buffered/waiting counters from the VC buffers
// each cycle (the ROADMAP's recompute-style mask invariant check: a mask
// update dropped from shared switch code would skew both paths equally, so
// only recomputation catches it).
func TestPipelineInvariantsEveryCycle(t *testing.T) {
	cfg := config.MustXCYM(4, 4, config.ArchWireless)
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 500
	tr := TrafficSpec{Kind: TrafficUniform, Rate: 0.05, MemFraction: 0.3, MemReadFraction: 0.5}
	for _, fullTick := range []bool{false, true} {
		e, err := New(Params{Cfg: cfg, Traffic: tr, fullTick: fullTick})
		if err != nil {
			t.Fatal(err)
		}
		total := cfg.WarmupCycles + cfg.MeasureCycles
		for ; e.now < total; e.now++ {
			e.step()
			if err := e.CheckPipelineInvariants(); err != nil {
				t.Fatalf("fullTick=%v cycle %d: %v", fullTick, e.now, err)
			}
		}
	}
}

// TestPipelineInvariantsEveryCycleSaturated recomputes every switch's
// pipeline predicates after every cycle of saturated 16-chip runs on each
// interconnect, serial and on two shards. Saturation is where VA blocks on
// held output VCs and SA on exhausted credits, so this is where the
// event-driven VA-pending flag and the starved masks do their work: a
// dropped trigger shows here as drift from the recomputed predicate, which
// no comparison between scheduling paths can see.
func TestPipelineInvariantsEveryCycleSaturated(t *testing.T) {
	tr := TrafficSpec{Kind: TrafficUniform, Rate: 1.0, MemFraction: 0.3, MemReadFraction: 0.5}
	for _, arch := range []config.Architecture{config.ArchWireless, config.ArchInterposer, config.ArchHybrid} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards%d", arch, shards), func(t *testing.T) {
				cfg := config.MustXCYM(16, 16, arch)
				cfg.WarmupCycles = 100
				cfg.MeasureCycles = 700
				cfg.EngineShards = shards
				e, err := New(Params{Cfg: cfg, Traffic: tr})
				if err != nil {
					t.Fatal(err)
				}
				defer e.stopShards()
				if len(e.shards) != shards {
					t.Fatalf("built %d shards, want %d", len(e.shards), shards)
				}
				total := cfg.WarmupCycles + cfg.MeasureCycles
				for ; e.now < total; e.now++ {
					e.step()
					if err := e.CheckPipelineInvariants(); err != nil {
						t.Fatalf("cycle %d: %v", e.now, err)
					}
				}
				if err := e.CheckFlitConservation(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestActiveSetMatchesFullTickAtSaturation exercises the schedulers where
// every component stays busy (saturation) and where drain empties the
// system, with conservation checked on both paths. The 16-chip saturated
// packages are where parking engages: most switches and NIs hold work
// they cannot move (the wireless medium or the mesh is the bottleneck),
// so a lost wake-up stalls a parked component and diverges from FullTick,
// which ticks everything. The active-set run also goes through two shards.
func TestActiveSetMatchesFullTickAtSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	tr := TrafficSpec{Kind: TrafficUniform, Rate: 1.0, MemFraction: 0.2}
	for _, tc := range []struct {
		chips, stacks int
		arch          config.Architecture
		drain         int64
	}{
		{4, 4, config.ArchWireless, 30000},
		{16, 16, config.ArchWireless, 20000},
		{16, 16, config.ArchInterposer, 20000},
	} {
		t.Run(fmt.Sprintf("%dC%dM/%s", tc.chips, tc.stacks, tc.arch), func(t *testing.T) {
			cfg := config.MustXCYM(tc.chips, tc.stacks, tc.arch)
			cfg.WarmupCycles = 100
			cfg.MeasureCycles = 600
			cfg.DrainCycles = tc.drain
			run := func(fullTick bool, shards int) string {
				c := cfg
				c.EngineShards = shards
				e, err := New(Params{Cfg: c, Traffic: tr, fullTick: fullTick})
				if err != nil {
					t.Fatal(err)
				}
				r, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				if err := e.CheckFlitConservation(); err != nil {
					t.Fatal(err)
				}
				if err := e.CheckPipelineInvariants(); err != nil {
					t.Fatal(err)
				}
				return resultJSON(t, r)
			}
			reference := run(true, 0)
			for _, shards := range []int{0, 2} {
				if got := run(false, shards); got != reference {
					t.Fatalf("saturated active-set run (engine_shards=%d) diverged from full-tick:\nactive:    %s\nreference: %s",
						shards, got, reference)
				}
			}
		})
	}
}
