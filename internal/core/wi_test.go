package core

import (
	"runtime"
	"testing"

	"wimc/internal/energy"
	"wimc/internal/noc"
	"wimc/internal/sim"
)

// TestTxQueueReusesBackingArray pins the WI TX queue to its backing array:
// once a queue has been filled to its depth, a steady stream of Accept
// (through the host switch's traversal, which spends the output credit)
// and popTx (which returns it) must not allocate. A pop that reslices the
// queue from the front shrinks its capacity until Accept's append
// reallocates — every few flits, for the whole run. The popped flits must
// still come out in order.
func TestTxQueueReusesBackingArray(t *testing.T) {
	cfg := testConfig()
	m, err := energy.NewMeter(cfg.ClockGHz)
	if err != nil {
		t.Fatal(err)
	}
	fb := NewFabric(cfg, m, sim.NewRand(1))
	sw := noc.NewSwitch(0, cfg.VCs, cfg.BufferDepth, cfg.FlitBits, 0, m)
	w := fb.AddWI(sw, 0, 0)
	fb.AddWI(noc.NewSwitch(1, cfg.VCs, cfg.BufferDepth, cfg.FlitBits, 0, m), 1, 0)
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
