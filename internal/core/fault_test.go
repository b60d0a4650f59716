package core

import (
	"slices"
	"testing"

	"wimc/internal/config"
	"wimc/internal/sim"
)

// faultStep runs one rig cycle with the engine's fault ordering: scheduled
// fault events fire before the MAC arbitrates the cycle.
func (r *rig) faultStep() {
	r.fabric.ApplyFaults(r.now)
	r.step()
}

func (r *rig) faultRun(cycles int) {
	for i := 0; i < cycles; i++ {
		r.faultStep()
	}
}

// TestPERTableDistanceScaled checks the path-loss curve: the worst
// (farthest) WI pair corrupts at exactly wireless_per, nearer pairs at the
// squared-distance fraction of it, and the diagonal at zero.
func TestPERTableDistanceScaled(t *testing.T) {
	cfg := testConfig()
	cfg.WirelessPER = 0.4
	r := newRig(t, 5, cfg) // WIs on a line: d²max = 16
	r.fabric.InitFaults()
	if r.fabric.faults == nil {
		t.Fatal("fault model not armed with wireless_per > 0")
	}
	per := r.fabric.faults.per
	if got := per[0][4]; got != 0.4 {
		t.Fatalf("worst pair PER = %v, want wireless_per 0.4", got)
	}
	if got, want := per[0][2], 0.4*4.0/16.0; got != want {
		t.Fatalf("half-distance PER = %v, want %v", got, want)
	}
	if per[3][3] != 0 {
		t.Fatalf("self PER = %v, want 0", per[3][3])
	}
	if per[1][4] != per[4][1] {
		t.Fatal("PER table not symmetric")
	}
}

// TestKillWIDropsQueuedAndRefusesNew fail-stops a WI whose TX queue holds
// an uncommitted packet: the queued packet and a packet injected after the
// failure are both dropped with their flit credits returned, survivors
// keep delivering, and the MAC invariants hold through the excision.
func TestKillWIDropsQueuedAndRefusesNew(t *testing.T) {
	cfg := multiChannelConfig(config.AssignStaticPartition, 2)
	cfg.FaultSchedule = []config.FaultEvent{{Cycle: 30, Kind: config.FaultWIFail, WI: 0}}
	r := newRig(t, 4, cfg)
	r.fabric.InitFaults()

	// Park a packet at WI 0 a moment before it dies (cycle 30 fires before
	// arbitration, so nothing from WI 0 commits), plus survivor traffic.
	for i := 0; i < 29; i++ {
		r.faultStep()
	}
	doomed := r.send(t, 1, 0, 2, 8)
	live := r.send(t, 2, 1, 3, 8)
	for i := 0; i < 400; i++ {
		r.faultStep()
		if err := r.fabric.CheckMACInvariants(); err != nil {
			t.Fatalf("cycle %d after kill: %v", r.now, err)
		}
	}
	if !r.fabric.faults.dead[0] {
		t.Fatal("WI 0 not marked dead after the scheduled fail-stop")
	}
	for _, p := range r.delivered {
		if p.ID == doomed.ID {
			t.Fatal("packet queued at the dead WI was delivered")
		}
	}
	found := false
	for _, p := range r.delivered {
		found = found || p.ID == live.ID
	}
	if !found {
		t.Fatal("survivor WI's packet not delivered after the excision")
	}
	// A packet injected toward the fabric after the death is consumed and
	// dropped at the dead transceiver, credits returned.
	drops := r.fabric.Drops
	r.send(t, 3, 0, 2, 8)
	r.faultRun(200)
	if r.fabric.Drops <= drops {
		t.Fatal("post-mortem injection at the dead WI not counted as a drop")
	}
	if r.fabric.DroppedFlits == 0 {
		t.Fatal("dropped packets returned no flits to the conservation ledger")
	}
}

// queuedAtWI0 builds a three-WI rig with the fault model armed and a
// notifier recording every fault notice into notices, queues two 4-flit
// packets at WI 0 (toward endpoints 1 and 2) and ticks only the switches
// and NIs, replaying their logs as the engine does, so the flits reach WI
// 0's TX queues and stay: no MAC ever launches them.
func queuedAtWI0(t *testing.T, cfg config.Config, notices *[]FaultNotice) *rig {
	t.Helper()
	r := newRig(t, 3, cfg)
	r.fabric.InitFaults()
	r.fabric.SetFaultNotifier(func(_ sim.Cycle, n FaultNotice) { *notices = append(*notices, n) })
	r.send(t, 1, 0, 1, 4)
	r.send(t, 2, 0, 2, 4)
	for ; r.now < 40; r.now++ {
		r.sweep()
		r.tickEndpoints()
	}
	if w := r.wis[0]; w.txLen != 8 {
		t.Fatalf("WI 0 holds %d TX flits, want both 4-flit packets", w.txLen)
	}
	return r
}

// TestKillWIClearsDroppedTxSlots queues two packets at WI 0 without ever
// launching, kills it, and requires the dropped entries to leave the TX
// queues' backing arrays: a dead WI must not pin the packets it dropped.
func TestKillWIClearsDroppedTxSlots(t *testing.T) {
	cfg := testConfig()
	cfg.FaultSchedule = []config.FaultEvent{{Cycle: 1000, Kind: config.FaultWIFail, WI: 0}}
	var notices []FaultNotice
	r := queuedAtWI0(t, cfg, &notices)
	w := r.wis[0]
	r.fabric.killWI(r.now, 0)
	for q, queue := range w.txVC {
		for i, e := range queue[len(queue):cap(queue)] {
			if e.f.Pkt != nil {
				t.Fatalf("queue %d slot %d still holds packet %d after the kill", q, len(queue)+i, e.f.Pkt.ID)
			}
		}
	}
}

// TestSerialPhaseDropsApplyAtOnce pins that the two drops made in serial
// phases, a WI failure (killWI, from ApplyFaults) and an exhausted retry
// budget (dropRetryExhausted, from Launch), apply at once rather than
// through the WI's op log: before any ReplayShardOps, Drops (and
// RetryExhausted) already count each drop, the notifier has already seen
// each drop notice (after the WI's failure notice), and the log holds no
// OpDrop. Logged instead, a drop's trace record would move behind the
// retransmit records Launch writes later in the same cycle.
func TestSerialPhaseDropsApplyAtOnce(t *testing.T) {
	cfg := testConfig()
	cfg.WirelessPER = 0.5 // arms the fault model
	kinds := func(ns []FaultNotice) []string {
		var out []string
		for _, n := range ns {
			out = append(out, n.Kind)
		}
		return out
	}
	noDropLogged := func(t *testing.T, ops []ShardOp) {
		t.Helper()
		for _, op := range ops {
			if op.Kind == OpDrop {
				t.Fatalf("drop of packet %d went to the op log", op.Pkt.ID)
			}
		}
	}

	t.Run("wi-fail", func(t *testing.T) {
		var notices []FaultNotice
		r := queuedAtWI0(t, cfg, &notices)
		r.fabric.killWI(r.now, 0)
		if r.fabric.Drops != 2 {
			t.Fatalf("Drops = %d right after the kill, want both queued packets", r.fabric.Drops)
		}
		if got := kinds(notices); !slices.Equal(got, []string{"wi-fail", "drop", "drop"}) {
			t.Fatalf("notices right after the kill: %v, want wi-fail then two drops", got)
		}
		dropped := []uint64{notices[1].Pkt.ID, notices[2].Pkt.ID}
		slices.Sort(dropped)
		if !slices.Equal(dropped, []uint64{1, 2}) || notices[1].Reason != "wi-fail" {
			t.Fatalf("drop notices name packets %v for %q, want 1 and 2 for wi-fail", dropped, notices[1].Reason)
		}
		noDropLogged(t, r.ops)
	})

	t.Run("retry-exhausted", func(t *testing.T) {
		var notices []FaultNotice
		r := queuedAtWI0(t, cfg, &notices)
		w := r.wis[0]
		q := slices.IndexFunc(w.txVC, func(queue []txEntry) bool {
			return len(queue) > 0 && queue[0].f.Pkt.ID == 1
		})
		if q < 0 {
			t.Fatal("packet 1 heads no TX queue of WI 0")
		}
		r.fabric.dropRetryExhausted(r.now, w, q)
		if r.fabric.Drops != 1 || r.fabric.RetryExhausted != 1 {
			t.Fatalf("Drops %d, RetryExhausted %d right after the drop, want 1 and 1",
				r.fabric.Drops, r.fabric.RetryExhausted)
		}
		if len(notices) != 1 || notices[0].Kind != "drop" || notices[0].Pkt.ID != 1 ||
			notices[0].Reason != "retry-exhausted" {
			t.Fatalf("notices right after the drop: %+v, want one retry-exhausted drop of packet 1", notices)
		}
		noDropLogged(t, r.ops)
	})
}

// TestSurvivorLivenessAfterExcision is the starvation check: with one
// member of a sub-channel fail-stopped, every survivor in that zone must
// keep winning turns — traffic injected at each survivor after the kill
// drains within a bounded window.
func TestSurvivorLivenessAfterExcision(t *testing.T) {
	cfg := multiChannelConfig(config.AssignSingle, 1) // all 6 WIs share one turn ring
	cfg.FaultSchedule = []config.FaultEvent{{Cycle: 10, Kind: config.FaultWIFail, WI: 2}}
	r := newRig(t, 6, cfg)
	r.fabric.InitFaults()
	r.faultRun(20)

	want := make(map[uint64]bool)
	id := uint64(100)
	for src := 0; src < 6; src++ {
		if src == 2 {
			continue
		}
		dst := (src + 1) % 6
		if dst == 2 {
			dst = 3
		}
		want[id] = true
		r.send(t, id, src, dst, 8)
		id++
	}
	r.faultRun(2000)
	for _, p := range r.delivered {
		delete(want, p.ID)
	}
	if len(want) != 0 {
		t.Fatalf("%d survivor packets starved after excision: %v", len(want), want)
	}
	if err := r.fabric.CheckMACInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOutageFreezesThenResumes parks traffic behind a sub-channel outage
// window: nothing on the frozen channel launches inside the window, and
// the backlog drains once it lifts — an outage is a delay, never a loss.
func TestOutageFreezesThenResumes(t *testing.T) {
	cfg := multiChannelConfig(config.AssignStaticPartition, 2)
	cfg.FaultSchedule = []config.FaultEvent{{Cycle: 5, Kind: config.FaultOutage, SubChannel: 0, Duration: 300}}
	r := newRig(t, 4, cfg)
	r.fabric.InitFaults()

	// Static partition interleaves by index: WIs 0 and 2 ride sub-channel 0.
	p := r.send(t, 1, 0, 2, 8)
	r.faultRun(250) // well inside the [5, 305) window
	if len(r.delivered) != 0 {
		t.Fatalf("packet %d delivered during the outage window", p.ID)
	}
	r.faultRun(400)
	if len(r.delivered) != 1 || r.delivered[0].ID != p.ID {
		t.Fatalf("backlog not drained after the outage lifted: %d delivered", len(r.delivered))
	}
	if r.fabric.Drops != 0 {
		t.Fatalf("outage recorded %d drops; outages must only delay", r.fabric.Drops)
	}
	if err := r.fabric.CheckMACInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRetryExhaustionDropsHead forces corruption of every transmission
// from one WI (PER table overridden to 1 for the pair) and checks the
// uncommitted head burns its budget, the packet is abandoned and counted,
// and the transmitter backs off between attempts.
func TestRetryExhaustionDropsHead(t *testing.T) {
	cfg := exclusiveConfig()
	cfg.WirelessPER = 1.0 // armed; table overridden below for determinism
	cfg.WirelessRetryLimit = 3
	r := newRig(t, 4, cfg)
	r.fabric.InitFaults()
	fs := r.fabric.faults
	for i := range fs.per {
		for j := range fs.per[i] {
			if i != j {
				fs.per[i][j] = 1.0
			}
		}
	}
	p := r.send(t, 1, 0, 2, 8)
	r.faultRun(3000)
	if len(r.delivered) != 0 {
		t.Fatal("packet delivered despite certain corruption")
	}
	if r.fabric.RetryExhausted != 1 {
		t.Fatalf("RetryExhausted = %d, want 1", r.fabric.RetryExhausted)
	}
	if r.fabric.Drops != 1 {
		t.Fatalf("Drops = %d, want 1", r.fabric.Drops)
	}
	if got := p.Retransmits; got != 3 {
		t.Fatalf("packet retransmits = %d, want retry budget 3", got)
	}
	if r.fabric.DroppedFlits != 8 {
		t.Fatalf("DroppedFlits = %d, want the packet's 8 flits", r.fabric.DroppedFlits)
	}
	if err := r.fabric.CheckMACInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBackoffDelaysRetry checks the exponential NACK backoff: consecutive
// corruptions push the transmitter's next attempt out by growing powers of
// two, capped, and a success resets the streak.
func TestBackoffDelaysRetry(t *testing.T) {
	cfg := exclusiveConfig()
	cfg.WirelessPER = 1.0
	cfg.WirelessRetryLimit = 64
	r := newRig(t, 4, cfg)
	r.fabric.InitFaults()
	fs := r.fabric.faults
	for i := range fs.per {
		for j := range fs.per[i] {
			if i != j {
				fs.per[i][j] = 1.0
			}
		}
	}
	r.send(t, 1, 0, 2, 8)
	r.faultRun(40)
	if fs.consecFails[0] < 2 {
		t.Fatalf("consecutive-failure streak = %d after 40 corrupted cycles", fs.consecFails[0])
	}
	if fs.backoffUntil[0] <= r.now-1 {
		t.Fatal("no backoff window open while every transmission corrupts")
	}
	// Clear the loss and let the packet through: the streak must reset.
	for i := range fs.per {
		for j := range fs.per[i] {
			fs.per[i][j] = 0
		}
	}
	r.faultRun(600)
	if len(r.delivered) != 1 {
		t.Fatalf("packet not delivered after loss cleared (%d delivered)", len(r.delivered))
	}
	if fs.consecFails[0] != 0 {
		t.Fatalf("failure streak %d not reset by a clean transmission", fs.consecFails[0])
	}
}
