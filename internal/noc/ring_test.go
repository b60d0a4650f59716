package noc

import (
	"testing"
	"testing/quick"

	"wimc/internal/energy"
)

// testRing is a flit ring with its own window, as one VC's is a window of
// its switch's slot slab.
type testRing struct {
	flitRing
	win []Flit
}

func newTestRing(capacity int) *testRing {
	return &testRing{win: make([]Flit, capacity)}
}

func (r *testRing) push(f Flit) bool   { return r.flitRing.push(r.win, f) }
func (r *testRing) peek() (Flit, bool) { return r.flitRing.peek(r.win) }
func (r *testRing) pop() (Flit, bool)  { return r.flitRing.pop(r.win) }

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
	for i := 0; i < 3; i++ {
		if !r.push(FlitAt(p, i)) {
			t.Fatalf("push %d failed", i)
		}
	}
	if r.push(FlitAt(p, 3)) {
		t.Fatal("push into full ring succeeded")
	}
	f, ok := r.peek()
	if !ok || f.Seq != 0 {
		t.Fatalf("peek = %v, %v", f.Seq, ok)
	}
	for i := 0; i < 3; i++ {
		f, ok := r.pop()
		if !ok || f.Seq != int32(i) {
			t.Fatalf("pop %d = seq %d", i, f.Seq)
		}
	}
	if r.len() != 0 {
		t.Fatal("ring not empty after pops")
	}
	for i, f := range r.win {
		if f.Pkt != nil {
			t.Fatalf("slot %d still holds flit %d after its pop", i, f.Seq)
		}
	}
}

func TestRingWrapAround(t *testing.T) {
	r := newTestRing(2)
	p := &Packet{ID: 2, NumFlits: 100}
	seq := int32(0)
	popped := int32(0)
	for round := 0; round < 50; round++ {
		r.push(FlitAt(p, int(seq)))
		seq++
		f, ok := r.pop()
		if !ok || f.Seq != popped {
			t.Fatalf("round %d: popped seq %d, want %d", round, f.Seq, popped)
		}
		popped++
	}
}

// TestRingMatchesReferenceModel drives the ring with random operation
// sequences and compares against a plain slice. The ring's window sits
// between two neighbours in one slab, as a VC's does in its switch, and
// the neighbours must stay untouched.
func TestRingMatchesReferenceModel(t *testing.T) {
	p := &Packet{ID: 3, NumFlits: 1 << 20}
	guard := &Packet{ID: 99, NumFlits: 1}
	check := func(ops []bool, capSeed uint8) bool {
		capacity := int(capSeed%7) + 1
		slab := make([]Flit, 3*capacity)
		for i := range slab {
			slab[i] = FlitAt(guard, 0)
		}
		r := &testRing{win: slab[capacity : 2*capacity]}
		var ref []Flit
		seq := 0
		for _, push := range ops {
			if push {
				f := FlitAt(p, seq%p.NumFlits)
				seq++
				got := r.push(f)
				want := len(ref) < capacity
				if got != want {
					return false
				}
				if want {
					ref = append(ref, f)
				}
			} else {
				got, ok := r.pop()
				if ok != (len(ref) > 0) {
					return false
				}
				if ok {
					if got.Seq != ref[0].Seq {
						return false
					}
					ref = ref[1:]
				}
			}
			if r.len() != len(ref) {
				return false
			}
		}
		for i, f := range slab {
			if (i < capacity || i >= 2*capacity) && f.Pkt != guard {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFlitKinds(t *testing.T) {
	p := &Packet{ID: 4, NumFlits: 3}
	fs := []Flit{FlitAt(p, 0), FlitAt(p, 1), FlitAt(p, 2)}
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
	f := FlitAt(single, 0)
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
