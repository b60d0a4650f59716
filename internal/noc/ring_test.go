package noc

import (
	"math/rand"
	"testing"

	"wimc/internal/energy"
)

// testRing is a VC buffer with its own window, as a switch VC's is a
// window of its switch's record slab.
type testRing struct {
	inputVC
	win []pktRec
}

func newTestRing(capacity int) *testRing {
	return &testRing{win: make([]pktRec, capacity)}
}

// push appends f when the buffer has room and f is the flit it expects,
// the two checks Switch.Receive makes, and reports whether it did.
func (r *testRing) push(f Flit) bool {
	if r.len() == len(r.win) || f.Seq != r.nextSeq {
		return false
	}
	r.inputVC.push(r.win, f)
	return true
}

func (r *testRing) peek() (Flit, bool) { return r.inputVC.peek(r.win) }
func (r *testRing) pop() (Flit, bool)  { return r.inputVC.pop(r.win) }

func TestRingBasics(t *testing.T) {
	r := newTestRing(3)
	if r.len() != 0 {
		t.Fatal("fresh ring state wrong")
	}
	if _, ok := r.pop(); ok {
		t.Fatal("pop from empty succeeded")
	}
	if _, ok := r.peek(); ok {
		t.Fatal("peek at empty succeeded")
	}
	p := &Packet{ID: 1, NumFlits: 4}
	if r.push(flitAt(p, 1)) {
		t.Fatal("push of a body flit into an empty ring succeeded")
	}
	for i := 0; i < 3; i++ {
		if !r.push(flitAt(p, i)) {
			t.Fatalf("push %d failed", i)
		}
	}
	if r.push(flitAt(p, 3)) {
		t.Fatal("push into full ring succeeded")
	}
	f, ok := r.peek()
	if !ok || f.Seq != 0 || !f.IsHead() || f.Pkt != p {
		t.Fatalf("peek = %+v, %v", f, ok)
	}
	for i := 0; i < 3; i++ {
		f, ok := r.pop()
		if !ok || f.Seq != int32(i) {
			t.Fatalf("pop %d = seq %d", i, f.Seq)
		}
	}
	// The packet's tail has not arrived: its record stays, and the ring
	// takes only that tail.
	if r.len() != 0 || r.recs != 1 || r.win[r.first].pkt != p {
		t.Fatalf("after popping three of four flits: %d flits, %d records", r.len(), r.recs)
	}
	if r.push(flitAt(&Packet{ID: 2, NumFlits: 1}, 0)) || !r.push(flitAt(p, 3)) {
		t.Fatal("ring with an open packet did not take exactly its next flit")
	}
	if f, ok := r.pop(); !ok || !f.IsTail() || f.Seq != 3 {
		t.Fatalf("tail pop = %+v, %v", f, ok)
	}
	if r.len() != 0 || r.recs != 0 {
		t.Fatal("ring not empty after pops")
	}
	for i, rec := range r.win {
		if rec != (pktRec{}) {
			t.Fatalf("slot %d still holds packet %d after its tail's pop", i, rec.pkt.ID)
		}
	}
}

func TestRingWrapAround(t *testing.T) {
	r := newTestRing(2)
	long := &Packet{ID: 2, NumFlits: 100}
	for seq := 0; seq < long.NumFlits; seq++ {
		r.push(flitAt(long, seq))
		f, ok := r.pop()
		if !ok || f.Seq != int32(seq) {
			t.Fatalf("seq %d: popped seq %d", seq, f.Seq)
		}
	}
	// One-flit packets move the record ring round the window.
	for i := 0; i < 50; i++ {
		p := &Packet{ID: uint64(10 + i), NumFlits: 1}
		if !r.push(flitAt(p, 0)) {
			t.Fatalf("packet %d: push failed", i)
		}
		if f, ok := r.pop(); !ok || f.Pkt != p || f.Kind != KindHeadTail {
			t.Fatalf("packet %d: popped %+v", i, f)
		}
	}
}

// TestRingMatchesReferenceModel drives the buffer with random pushes and
// pops of packets of 1 to 20 flits, in either VC class, and holds it to a
// plain slice of flits: every peek and pop returns the reference's oldest
// flit field for field (the VC aside, which the switch assigns at
// traversal), the buffer takes a flit exactly when the reference has
// room, checkBuffer passes after every step, and a packet's record is
// zero once its tail pops. The window sits between two neighbours in one
// slab, as a VC's does in its switch, and they must stay untouched.
func TestRingMatchesReferenceModel(t *testing.T) {
	guard := pktRec{pkt: &Packet{ID: 99, NumFlits: 1}, flits: 1}
	for _, capacity := range []int{1, 2, 3, 7, 16} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		slab := make([]pktRec, 3*capacity)
		for i := range slab {
			slab[i] = guard
		}
		clear(slab[capacity : 2*capacity])
		r := &testRing{win: slab[capacity : 2*capacity]}
		var ref []Flit
		var next Flit // the next flit of the arriving stream
		id := uint64(0)
		for step := 0; step < 20000; step++ {
			if next.Pkt == nil {
				id++
				p := &Packet{ID: id, NumFlits: 1 + rng.Intn(20)}
				next = flitAt(p, 0)
				next.Phase = uint8(rng.Intn(2))
			}
			if rng.Intn(2) == 0 {
				f := next
				f.VC = int16(rng.Intn(4)) // arriving flits carry their link VC
				got := r.push(f)
				if want := len(ref) < capacity; got != want {
					t.Fatalf("capacity %d step %d: push took %v with %d of %d flits held", capacity, step, got, len(ref), capacity)
				}
				if got {
					f.VC = 0
					ref = append(ref, f)
					if f.IsTail() {
						next = Flit{}
					} else {
						phase := next.Phase
						next = flitAt(next.Pkt, int(next.Seq)+1)
						next.Phase = phase
					}
				}
			} else {
				slot := r.first
				peeked, pok := r.peek()
				got, ok := r.pop()
				if ok != (len(ref) > 0) || pok != ok {
					t.Fatalf("capacity %d step %d: pop ok %v, peek ok %v, reference holds %d", capacity, step, ok, pok, len(ref))
				}
				if ok {
					if got != ref[0] || peeked != got {
						t.Fatalf("capacity %d step %d: popped %+v, peeked %+v, reference %+v", capacity, step, got, peeked, ref[0])
					}
					ref = ref[1:]
					if got.IsTail() && r.win[slot] != (pktRec{}) {
						t.Fatalf("capacity %d step %d: packet %d's record not zeroed by its tail's pop", capacity, step, got.Pkt.ID)
					}
				}
			}
			if r.len() != len(ref) {
				t.Fatalf("capacity %d step %d: %d flits, reference %d", capacity, step, r.len(), len(ref))
			}
			if err := r.checkBuffer(r.win); err != nil {
				t.Fatalf("capacity %d step %d: %v", capacity, step, err)
			}
		}
		for i, rec := range slab {
			if (i < capacity || i >= 2*capacity) && rec != guard {
				t.Fatalf("capacity %d: neighbour slot %d overwritten", capacity, i)
			}
		}
	}
}

// TestCheckBufferCatchesDrift: each counter the buffer keeps beside its
// records is checked against them.
func TestCheckBufferCatchesDrift(t *testing.T) {
	p := &Packet{ID: 1, NumFlits: 5}
	fresh := func() *testRing {
		r := newTestRing(4)
		for i := 0; i < 3; i++ {
			r.push(flitAt(p, i))
		}
		r.pop()
		if err := r.checkBuffer(r.win); err != nil {
			t.Fatalf("consistent buffer: %v", err)
		}
		return r
	}
	for name, drift := range map[string]func(r *testRing){
		"flit count":        func(r *testRing) { r.n++ },
		"oldest seq":        func(r *testRing) { r.oldSeq++ },
		"next seq":          func(r *testRing) { r.nextSeq = 7 },
		"record count":      func(r *testRing) { r.recs = 0 },
		"cached flits":      func(r *testRing) { r.win[r.first].flits = 4 },
		"unzeroed slot":     func(r *testRing) { r.win[(r.first+1)%4] = r.win[r.first] },
		"slot out of range": func(r *testRing) { r.first = 4 },
	} {
		r := fresh()
		drift(r)
		if err := r.checkBuffer(r.win); err == nil {
			t.Errorf("%s drift not reported", name)
		}
	}
}

func TestFlitKinds(t *testing.T) {
	p := &Packet{ID: 4, NumFlits: 3}
	fs := []Flit{flitAt(p, 0), flitAt(p, 1), flitAt(p, 2)}
	if !fs[0].IsHead() || fs[0].IsTail() {
		t.Fatal("first flit kind wrong")
	}
	if fs[1].IsHead() || fs[1].IsTail() {
		t.Fatal("body flit kind wrong")
	}
	if fs[2].IsHead() || !fs[2].IsTail() {
		t.Fatal("tail flit kind wrong")
	}
	single := &Packet{ID: 5, NumFlits: 1}
	f := flitAt(single, 0)
	if !f.IsHead() || !f.IsTail() || f.Kind != KindHeadTail {
		t.Fatal("single-flit packet must be head+tail")
	}
}

func TestPacketAccessors(t *testing.T) {
	p := &Packet{ID: 6, NumFlits: 64, CreatedAt: 10, InjectedAt: 15, DeliveredAt: 100}
	if p.Bits(32) != 2048 {
		t.Fatalf("bits = %d", p.Bits(32))
	}
	if p.Latency() != 90 || p.NetworkLatency() != 85 {
		t.Fatalf("latency %d / %d", p.Latency(), p.NetworkLatency())
	}
	p.AddEnergy(energy.QuantizePJ(2.5))
	p.AddEnergy(energy.QuantizePJ(1.5))
	if p.EnergyPJ() != 4 {
		t.Fatalf("energy = %v", p.EnergyPJ())
	}
	if KindHead.String() != "head" || FlitKind(9).String() == "" {
		t.Fatal("kind strings")
	}
	if ClassCoreToMem.String() != "core-mem" || PacketClass(9).String() == "" {
		t.Fatal("class strings")
	}
}
