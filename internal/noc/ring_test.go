package noc

import (
	"testing"
	"testing/quick"
)

func newFlitRing(capacity int) flitRing {
	return flitRing{buf: make([]Flit, capacity)}
}

func TestRingBasics(t *testing.T) {
	r := newFlitRing(3)
	if r.len() != 0 || r.cap() != 3 || r.full() {
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
	if !r.full() {
		t.Fatal("ring should be full")
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
}

func TestRingWrapAround(t *testing.T) {
	r := newFlitRing(2)
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
// sequences and compares against a plain slice.
func TestRingMatchesReferenceModel(t *testing.T) {
	p := &Packet{ID: 3, NumFlits: 1 << 20}
	check := func(ops []bool, capSeed uint8) bool {
		capacity := int(capSeed%7) + 1
		r := newFlitRing(capacity)
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
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFlitKinds(t *testing.T) {
	p := &Packet{ID: 4, NumFlits: 3}
	fs := FlitsOf(p)
	if len(fs) != 3 {
		t.Fatalf("FlitsOf returned %d flits", len(fs))
	}
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
	p.AddEnergy(2.5)
	p.AddEnergy(1.5)
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
