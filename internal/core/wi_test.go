package core

import (
	"runtime"
	"testing"

	"wimc/internal/config"
	"wimc/internal/energy"
	"wimc/internal/noc"
	"wimc/internal/sim"
)

// TestTxQueueReusesBackingArray pins the WI TX queue to its backing array:
// once a queue has been filled to its depth, a steady stream of Accept
// (through the host switch's traversal, which spends the output credit,
// and the replay of the op it logs) and popTx (which returns it) must not
// allocate. A pop that reslices the queue from the front shrinks its
// capacity until Accept's append reallocates — every few flits, for the
// whole run. The popped flits must still come out in order.
//
// The malloc count is process-wide, so the window is isolated from the
// runtime: a collection just before it finishes any GC cycle the set-up
// began, and GOMAXPROCS 1 (as in testing.AllocsPerRun) leaves no idle P
// for the world restart inside ReadMemStats to wake a new OS thread for,
// whose start costs five mallocs of its own.
func TestTxQueueReusesBackingArray(t *testing.T) {
	cfg := testConfig()
	m, err := energy.NewMeter(cfg.ClockGHz)
	if err != nil {
		t.Fatal(err)
	}
	fb := NewFabric(cfg, m, sim.NewRand(1))
	sw := noc.NewSwitch(0, 2, cfg.VCs, cfg.BufferDepth, cfg.FlitBits, 0, m.Root())
	var ops []ShardOp
	w := fb.AddWI(sw, 0, 0)
	w.SetShardLog(&ops)
	fb.AddWI(noc.NewSwitch(1, 1, cfg.VCs, cfg.BufferDepth, cfg.FlitBits, 0, m.Root()), 1, 0)
	in := sw.AddInputPort(nil)
	// Endpoint 0 is hosted by switch 1, one wireless hop away.
	sw.SetRoutes([]sim.SwitchID{1}, []sim.SwitchID{1, 1})

	// One endless wormhole: after its head is routed and granted an output
	// VC, every body flit crosses with one Receive and one TickSAST.
	const pairs = 10000
	pkt := &noc.Packet{ID: 1, NumFlits: 1 << 20}
	var now sim.Cycle
	next := 0
	feed := func() {
		sw.Receive(in, 0, noc.FlitAt(pkt, next))
		next++
		sw.TickSAST(now)
		sw.TickVA(now)
		sw.TickRC(now)
		fb.ReplayShardOps(now, ops)
		ops = ops[:0]
		now++
	}
	for w.TxLen() < cfg.TXBufferFlits {
		if now > 100 {
			t.Fatalf("TX queue holds %d flits after %d cycles, want %d", w.TxLen(), now, cfg.TXBufferFlits)
		}
		feed()
	}
	q := -1
	for i := range w.txVC {
		if len(w.txVC[i]) > 0 {
			q = i
		}
	}

	popped := int32(0)
	var before, after runtime.MemStats
	runtime.GC()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.ReadMemStats(&before)
	for i := 0; i < pairs; i++ {
		e := w.popTx(q)
		if e.f.Seq != popped {
			t.Fatalf("pop %d returned flit %d, want %d", i, e.f.Seq, popped)
		}
		popped++
		feed()
	}
	runtime.ReadMemStats(&after)
	if w.TxLen() != cfg.TXBufferFlits {
		t.Fatalf("TX queue holds %d flits after the pairs, want %d", w.TxLen(), cfg.TXBufferFlits)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("%d heap allocations over %d Accept/popTx pairs on a filled TX queue, want 0", n, pairs)
	}
}

// TestAcceptLogsFabricGlobalHalf checks that WI.Accept applies only its
// per-WI half at once: the flit joins the TX queue, and one OpAccept joins
// the shard log, while txTotal, the sub-channel's backlog counter and its
// turn queue stay unchanged until ReplayShardOps applies the op.
func TestAcceptLogsFabricGlobalHalf(t *testing.T) {
	r := newRig(t, 2, policyConfig(config.PolicySkipEmpty))
	fb, w := r.fabric, r.wis[0]
	backlog := func() int {
		queued, _ := fb.TurnQueueDepth(w)
		return queued
	}

	w.Accept(r.now, noc.FlitAt(&noc.Packet{ID: 1, NumFlits: 2}, 0), r.switches[1].ID)
	if w.TxLen() != 1 {
		t.Fatalf("TX queue holds %d flits after Accept, want 1", w.TxLen())
	}
	want := ShardOp{W: w, Kind: OpAccept, First: true}
	if len(r.ops) != 1 || r.ops[0] != want {
		t.Fatalf("Accept logged %+v, want one %+v", r.ops, want)
	}
	if fb.txTotal != 0 || backlog() != 0 || w.sub.inQueue[w.subSlot] {
		t.Fatalf("before replay: txTotal %d, backlogged %d, queued %v; want 0, 0, false",
			fb.txTotal, backlog(), w.sub.inQueue[w.subSlot])
	}

	fb.ReplayShardOps(r.now, r.ops)
	if fb.txTotal != 1 || backlog() != 1 || !w.sub.inQueue[w.subSlot] {
		t.Fatalf("after replay: txTotal %d, backlogged %d, queued %v; want 1, 1, true",
			fb.txTotal, backlog(), w.sub.inQueue[w.subSlot])
	}
}
