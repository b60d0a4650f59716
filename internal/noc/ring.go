package noc

// flitRing is the index state of one VC buffer, a fixed-capacity FIFO of
// flits: the slot of its oldest flit and its length. The flits live in a
// window of the owning switch's flit slab (see Switch.window), passed to
// each call, whose length is the ring's capacity.
type flitRing struct {
	head, n int32
}

func (r *flitRing) len() int { return int(r.n) }

// push appends a flit to win; it reports false when the ring is full.
func (r *flitRing) push(win []Flit, f Flit) bool {
	if int(r.n) == len(win) {
		return false
	}
	i := int(r.head + r.n)
	if i >= len(win) {
		i -= len(win)
	}
	win[i] = f
	r.n++
	return true
}

// peek returns the oldest flit without removing it.
func (r *flitRing) peek(win []Flit) (Flit, bool) {
	if r.n == 0 {
		return Flit{}, false
	}
	return win[r.head], true
}

// pop removes and returns the oldest flit, zeroing its slot.
func (r *flitRing) pop(win []Flit) (Flit, bool) {
	f, ok := r.peek(win)
	if !ok {
		return Flit{}, false
	}
	win[r.head] = Flit{}
	r.head++
	if int(r.head) == len(win) {
		r.head = 0
	}
	r.n--
	return f, true
}
