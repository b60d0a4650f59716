package noc

// flitRing is a fixed-capacity FIFO of flits backing one VC buffer. Its
// capacity is len(buf); the VC rings of one input port share one slab
// (see Switch.AddInputPort).
type flitRing struct {
	buf  []Flit
	head int
	n    int
}

func (r *flitRing) len() int   { return r.n }
func (r *flitRing) cap() int   { return len(r.buf) }
func (r *flitRing) full() bool { return r.n == len(r.buf) }

// push appends a flit; it reports false when the ring is full.
func (r *flitRing) push(f Flit) bool {
	if r.full() {
		return false
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = f
	r.n++
	return true
}

// peek returns the oldest flit without removing it.
func (r *flitRing) peek() (Flit, bool) {
	if r.n == 0 {
		return Flit{}, false
	}
	return r.buf[r.head], true
}

// pop removes and returns the oldest flit.
func (r *flitRing) pop() (Flit, bool) {
	f, ok := r.peek()
	if !ok {
		return Flit{}, false
	}
	r.buf[r.head] = Flit{}
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return f, true
}
