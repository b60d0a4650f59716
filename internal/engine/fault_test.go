package engine

import (
	"strings"
	"testing"

	"wimc/internal/config"
)

// faultCfg returns a small hybrid configuration with the multi-sub-channel
// exclusive fabric — the richest MAC the fault model has to excise WIs
// from — and short run windows.
func faultCfg(chips int) config.Config {
	cfg := config.MustXCYM(chips, 4, config.ArchHybrid)
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 800
	cfg.Channel = config.ChannelExclusive
	cfg.ChannelAssign = config.AssignSpatialReuse
	cfg.WirelessChannels = 2
	return cfg
}

// TestFaultMachineryOffByDefault is the PER=0 / empty-schedule equivalence
// guarantee stated structurally: with the fault model inactive, New must
// install none of the fault machinery — no PER table, no failover selector,
// no watchdog — so the simulation runs the exact pre-fault-model code path
// (the determinism matrix then pins that path's output byte-for-byte). The
// Result JSON must carry no fault_* keys either, keeping downstream
// consumers of fault-free runs byte-identical.
func TestFaultMachineryOffByDefault(t *testing.T) {
	cfg := faultCfg(4)
	e, err := New(Params{Cfg: cfg, Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.0005, MemFraction: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	// New arms the fabric's fault state (InitFaults) and the watchdog in
	// one branch, so no watchdog means no fault state either.
	if e.wd != nil {
		t.Fatal("liveness watchdog installed without a fault model")
	}
	if e.fsel != nil {
		t.Fatal("failover selector installed without a fault model")
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s := resultJSON(t, r); strings.Contains(s, "fault_") {
		t.Fatalf("fault-free Result JSON leaks fault fields: %s", s)
	}
}

// TestPERDropAccounting drives a lossy fabric (high PER, tiny retry budget)
// through a full drain and checks the packet ledger: every accepted packet
// is either delivered or accounted as a fault drop, retransmissions and
// retry exhaustion both fire, and flit conservation holds with the dropped
// flits folded in.
func TestPERDropAccounting(t *testing.T) {
	cfg := faultCfg(4)
	cfg.WirelessPER = 0.6
	cfg.WirelessRetryLimit = 2
	cfg.DrainCycles = 60000
	e, err := New(Params{Cfg: cfg, Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.005, MemFraction: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Retransmits == 0 {
		t.Fatal("PER 0.5 produced no retransmissions")
	}
	if r.FaultRetryExhausted == 0 {
		t.Fatal("retry budget 2 under PER 0.5 never exhausted")
	}
	if r.FaultDrops < r.FaultRetryExhausted {
		t.Fatalf("drops %d < retry-exhausted %d", r.FaultDrops, r.FaultRetryExhausted)
	}
	accepted := r.GeneratedPackets - r.RefusedPackets
	if got := r.DeliveredPackets + r.FaultDrops; got != accepted {
		t.Fatalf("packet ledger leak: delivered %d + dropped %d != accepted %d",
			r.DeliveredPackets, r.FaultDrops, accepted)
	}
	if err := e.CheckFlitConservation(); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckPipelineInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWIFailFailover kills a quarter of the WIs mid-warmup and checks
// graceful degradation: the run completes (no deadlock, watchdog clean),
// traffic keeps flowing, and packets that would have used a dead
// transceiver show up in the failover counter and on the wired-only class.
func TestWIFailFailover(t *testing.T) {
	cfg := faultCfg(4)
	cfg.RouteSelectMode = config.SelectAdaptive
	cfg.DrainCycles = 60000
	n := cfg.TotalWIs()
	for wi := 0; wi < n/4; wi++ {
		cfg.FaultSchedule = append(cfg.FaultSchedule,
			config.FaultEvent{Cycle: 50, Kind: config.FaultWIFail, WI: wi})
	}
	e, err := New(Params{Cfg: cfg, Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.001, MemFraction: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.FaultFailovers == 0 {
		t.Fatal("no packets failed over to the wired class after killing WIs")
	}
	if r.DeliveredPackets == 0 {
		t.Fatal("nothing delivered after killing a quarter of the WIs")
	}
	if r.RouteClassPackets["wired-only"] == 0 {
		t.Fatalf("failover produced no wired-only classifications: %v", r.RouteClassPackets)
	}
	if err := e.CheckFlitConservation(); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckPipelineInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOutageDelaysButDelivers freezes one sub-channel for a window and
// checks the outage is transparent to correctness: every accepted packet
// is still delivered once the window lifts and the drain completes.
func TestOutageDelaysButDelivers(t *testing.T) {
	cfg := config.MustXCYM(4, 4, config.ArchWireless)
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 800
	cfg.Channel = config.ChannelExclusive
	cfg.ChannelAssign = config.AssignStaticPartition
	cfg.WirelessChannels = 2
	cfg.DrainCycles = 60000
	cfg.FaultSchedule = []config.FaultEvent{
		{Cycle: 150, Kind: config.FaultOutage, SubChannel: 0, Duration: 300},
		{Cycle: 400, Kind: config.FaultOutage, SubChannel: 1, Duration: 100},
	}
	e, err := New(Params{Cfg: cfg, Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.0005, MemFraction: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	accepted := r.GeneratedPackets - r.RefusedPackets
	if accepted == 0 {
		t.Fatal("nothing accepted")
	}
	if r.DeliveredPackets != accepted {
		t.Fatalf("outage lost packets: delivered %d of %d accepted", r.DeliveredPackets, accepted)
	}
	if r.FaultDrops != 0 {
		t.Fatalf("outage (a delay, not a loss) recorded %d drops", r.FaultDrops)
	}
	if err := e.CheckFlitConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestWatchdogFiresOnStuckPacket pins the liveness bound far below the
// outage length so packets parked behind the frozen sub-channel exceed
// their max age: Run must fail with the watchdog error instead of
// silently absorbing the stall.
func TestWatchdogFiresOnStuckPacket(t *testing.T) {
	cfg := config.MustXCYM(4, 4, config.ArchWireless)
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 800
	cfg.Channel = config.ChannelExclusive
	cfg.ChannelAssign = config.AssignStaticPartition
	cfg.WirelessChannels = 2
	cfg.FaultMaxPacketAge = 200
	cfg.FaultSchedule = []config.FaultEvent{
		{Cycle: 150, Kind: config.FaultOutage, SubChannel: 0, Duration: 700},
	}
	e, err := New(Params{Cfg: cfg, Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.01, MemFraction: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil || !strings.Contains(err.Error(), "liveness watchdog") {
		t.Fatalf("expected liveness watchdog error, got %v", err)
	}
}

// TestFaultScheduleAcrossWorkerCounts is the worker-count determinism
// regression for faulty configs (and, under CI's -race leg, the race
// check on the fault schedule): the topology/route build parallelism must
// not leak into fault-model results.
func TestFaultScheduleAcrossWorkerCounts(t *testing.T) {
	cfg := faultCfg(4)
	cfg.RouteSelectMode = config.SelectAdaptive
	cfg.WirelessPER = 0.05
	cfg.WirelessRetryLimit = 4
	cfg.FaultSchedule = []config.FaultEvent{
		{Cycle: 150, Kind: config.FaultWIFail, WI: 1},
		{Cycle: 300, Kind: config.FaultOutage, SubChannel: 1, Duration: 200},
	}
	tr := TrafficSpec{Kind: TrafficUniform, Rate: 0.001, MemFraction: 0.2}
	var want string
	for _, workers := range []int{1, 2, 8} {
		r := mustRun(t, Params{Cfg: cfg, Traffic: tr, BuildWorkers: workers})
		got := resultJSON(t, r)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("fault-schedule run diverged at %d build workers:\n%s\n%s", workers, want, got)
		}
	}
}
