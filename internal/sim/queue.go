package sim

// Queue is a FIFO ring buffer. Its owner sizes it once with NewQueue to
// the most items it can hold at a time, so Push and Pop only move two
// indices over one allocation for the whole run: a link's flit and credit
// pipelines and an NI's two pipes each take at most one push per cycle
// and hold an item for latency cycles, so latency+1 slots suffice. A full
// queue still takes a push, by doubling its ring, so the zero Queue (the
// wireless fabric's in-flight deliveries) grows on demand. Popped slots
// are zeroed so the queue never pins garbage.
type Queue[T any] struct {
	buf  []T
	head int
	n    int
}

// NewQueue returns an empty queue with room for capacity items.
func NewQueue[T any](capacity int) Queue[T] {
	return Queue[T]{buf: make([]T, capacity)}
}

// Len returns the number of live elements.
func (q *Queue[T]) Len() int { return q.n }

// Cap returns how many elements the queue holds before its ring grows.
func (q *Queue[T]) Cap() int { return len(q.buf) }

// Empty reports whether no live elements remain.
func (q *Queue[T]) Empty() bool { return q.n == 0 }

// Push appends v to the tail, doubling the ring first when it is full.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = v
	q.n++
}

// grow moves the live elements, oldest first, into a ring twice the size
// (four slots for an unsized queue). Its two copies are one expression so
// that Push, which inlines it, stays within the compiler's inlining
// budget.
func (q *Queue[T]) grow() {
	buf := make([]T, max(2*len(q.buf), 4))
	copy(buf[copy(buf, q.buf[q.head:]):], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// Peek returns the head element without consuming it. It must not be
// called on an empty queue.
func (q *Queue[T]) Peek() T { return q.buf[q.head] }

// Pop consumes and returns the head element, zeroing its slot. It must not
// be called on an empty queue.
func (q *Queue[T]) Pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return v
}
