package noc

import "fmt"

// A VC buffer is a FIFO of flits that wormhole switching fills packet by
// packet, each packet's flits in sequence (Switch.Receive checks it), so
// it stores no flit. It keeps one pktRec per packet whose head it has
// taken and whose tail it has not yet given up, in a ring over the VC's
// window of its switch's record slab (see Switch.window), and the
// counters of inputVC: n flits buffered, the slot first of the oldest
// record and the count recs of records, the sequence number oldSeq of
// the oldest flit (a flit of the oldest record's packet) and nextSeq, the
// one the next arriving flit must carry. peek and pop rebuild the oldest
// flit from them by flitKind, the rule an NI builds flits by. A body
// flit's push and pop thus change only counters, and neither loads the
// Packet.
//
// A window of depth records is enough: a record without a buffered flit
// is that of a packet whose tail has not arrived yet, which is both the
// newest and the oldest record, because the next packet's head arrives
// only after that tail. So a buffer of depth flits holds at most depth
// records.

// pktRec is a VC buffer's record of one packet: the packet, its flit
// count and the VC class its flits carry. It is 16 bytes, the size of a
// flit.
type pktRec struct {
	pkt   *Packet
	flits int32
	phase uint8
}

// len returns the number of flits buffered.
func (vc *inputVC) len() int { return int(vc.n) }

// push appends f, the flit the buffer expects next (f.Seq == nextSeq), to
// the buffer whose records are win; the caller has checked that the
// buffer is not full. Only a head writes a record and loads its Packet.
func (vc *inputVC) push(win []pktRec, f Flit) {
	if f.IsHead() {
		i := int(vc.first) + int(vc.recs)
		if i >= len(win) {
			i -= len(win)
		}
		win[i] = pktRec{pkt: f.Pkt, flits: int32(f.Pkt.NumFlits), phase: f.Phase}
		vc.recs++
	}
	vc.nextSeq = f.Seq + 1
	if f.IsTail() {
		vc.nextSeq = 0
	}
	vc.n++
}

// peek returns the oldest flit without removing it. The flit's VC is 0:
// the switch assigns it at traversal.
func (vc *inputVC) peek(win []pktRec) (Flit, bool) {
	if vc.n == 0 {
		return Flit{}, false
	}
	r := &win[vc.first]
	return Flit{Pkt: r.pkt, Seq: vc.oldSeq, Kind: flitKind(vc.oldSeq, r.flits), Phase: r.phase}, true
}

// pop removes and returns the oldest flit. Popping a tail zeroes its
// packet's record.
func (vc *inputVC) pop(win []pktRec) (Flit, bool) {
	f, ok := vc.peek(win)
	if !ok {
		return Flit{}, false
	}
	vc.n--
	if !f.IsTail() {
		vc.oldSeq++
		return f, true
	}
	win[vc.first] = pktRec{}
	vc.first++
	if int(vc.first) == len(win) {
		vc.first = 0
	}
	vc.recs--
	vc.oldSeq = 0
	return f, true
}

// checkBuffer reports the first disagreement between the buffer's
// counters and its records win: the held records must each name a packet
// and cache its flit count, every other slot must be zero, the sequence
// numbers must lie within their records' packets, and the flits they span
// from the oldest to the newest must number n.
func (vc *inputVC) checkBuffer(win []pktRec) error {
	size := len(win)
	if vc.n < 0 || int(vc.n) > size || vc.recs < 0 || int(vc.recs) > size || vc.first < 0 || int(vc.first) >= size {
		return fmt.Errorf("counters out of range: %d flits, %d records from slot %d, window of %d", vc.n, vc.recs, vc.first, size)
	}
	spanned := 0
	for i, r := range win {
		held := i - int(vc.first)
		if held < 0 {
			held += size
		}
		if held >= int(vc.recs) {
			if r != (pktRec{}) {
				return fmt.Errorf("slot %d, outside the %d records held from slot %d, is not zeroed", i, vc.recs, vc.first)
			}
			continue
		}
		if r.pkt == nil || int(r.flits) != r.pkt.NumFlits {
			return fmt.Errorf("record in slot %d caches %d flits for packet %v", i, r.flits, r.pkt)
		}
		spanned += int(r.flits)
	}
	if vc.recs == 0 {
		if vc.n != 0 || vc.oldSeq != 0 || vc.nextSeq != 0 {
			return fmt.Errorf("no records, but %d flits, oldest seq %d, next seq %d", vc.n, vc.oldSeq, vc.nextSeq)
		}
		return nil
	}
	oldest, newest := win[vc.first], win[(int(vc.first)+int(vc.recs)-1)%size]
	if vc.oldSeq < 0 || vc.oldSeq >= oldest.flits || vc.nextSeq < 0 || vc.nextSeq >= newest.flits {
		return fmt.Errorf("oldest seq %d of %d flits, next seq %d of %d", vc.oldSeq, oldest.flits, vc.nextSeq, newest.flits)
	}
	// The flits before the oldest one and after the newest are not held:
	// none after a complete newest packet (nextSeq 0).
	spanned -= int(vc.oldSeq)
	if vc.nextSeq != 0 {
		spanned -= int(newest.flits - vc.nextSeq)
	}
	if spanned != int(vc.n) {
		return fmt.Errorf("records span %d flits, counter %d", spanned, vc.n)
	}
	return nil
}
