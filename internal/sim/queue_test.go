package sim

import "testing"

// TestQueueMatchesReferenceFIFO drives queues of several initial sizes,
// the unsized zero Queue among them, with random pushes and pops against
// a plain slice FIFO. The runs wrap each ring many times, and bursts of
// pushes grow it past its initial capacity with the live elements
// wrapped around the end of the ring.
func TestQueueMatchesReferenceFIFO(t *testing.T) {
	for _, capacity := range []int{0, 1, 2, 3, 7} {
		rng := NewRand(uint64(capacity) + 1)
		q := NewQueue[int](capacity)
		var ref []int
		next, grew := 0, false
		for op := 0; op < 20000; op++ {
			// Mostly balanced traffic; every 500th step pushes a burst.
			burst := 1
			if op%500 == 499 {
				burst = 1 + rng.Intn(3*capacity+5)
			}
			if burst > 1 || rng.Intn(2) == 0 {
				for k := 0; k < burst; k++ {
					q.Push(next)
					ref = append(ref, next)
					next++
				}
			} else if len(ref) > 0 {
				if got := q.Peek(); got != ref[0] {
					t.Fatalf("cap %d, op %d: Peek = %d, want %d", capacity, op, got, ref[0])
				}
				if got := q.Pop(); got != ref[0] {
					t.Fatalf("cap %d, op %d: Pop = %d, want %d", capacity, op, got, ref[0])
				}
				ref = ref[1:]
			}
			if q.Len() != len(ref) || q.Empty() != (len(ref) == 0) {
				t.Fatalf("cap %d, op %d: Len %d, Empty %v; reference holds %d",
					capacity, op, q.Len(), q.Empty(), len(ref))
			}
			if q.Cap() < q.Len() {
				t.Fatalf("cap %d, op %d: %d elements in a ring of %d", capacity, op, q.Len(), q.Cap())
			}
			grew = grew || q.Cap() > capacity
		}
		if !grew {
			t.Fatalf("cap %d: the ring never grew past its initial capacity", capacity)
		}
		for len(ref) > 0 {
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("cap %d, drain: Pop = %d, want %d", capacity, got, ref[0])
			}
			ref = ref[1:]
		}
		if !q.Empty() {
			t.Fatalf("cap %d: queue not empty after draining the reference", capacity)
		}
	}
}

// TestQueueSizedRingNeverGrows: a queue holding at most its capacity,
// pushed and popped in step for many wraps, keeps its one ring, and every
// popped slot is zeroed so the ring pins nothing.
func TestQueueSizedRingNeverGrows(t *testing.T) {
	q := NewQueue[*int](3)
	for i := 0; i < 1000; i++ {
		v := i
		q.Push(&v)
		if q.Len() == 3 {
			if got := *q.Pop(); got != i-2 {
				t.Fatalf("push %d: popped %d, want %d", i, got, i-2)
			}
		}
		if q.Cap() != 3 {
			t.Fatalf("push %d: ring grew to %d", i, q.Cap())
		}
	}
	for !q.Empty() {
		q.Pop()
	}
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still points at %d after draining", i, *p)
		}
	}
}
