package noc

import (
	"testing"
)

// FuzzLinkMailbox drives a mailboxed link and a direct twin through
// identical fuzz-chosen traffic schedules (offer timing and packet sizes)
// and pins the sharded boundary-handoff contract:
//
//   - conservation: every flit sent is consumed, buffered, on the wire,
//     parked in a mailbox parity buffer, or inside an NI — every cycle;
//   - equivalence: the split DeliverFlitHalf/DrainFlitInbox (and credit)
//     handoff delivers every packet at exactly the cycle the serial
//     Deliver path does, for arbitrary enqueue/dequeue interleavings;
//   - drain: after traffic stops, the mailbox empties completely.
//
// The mailboxed pipe steps in the sharded engine's P1 order (stepBoxed).
// The direct pipe is the serial reference.
func FuzzLinkMailbox(f *testing.F) {
	f.Add([]byte{0x01})
	f.Add([]byte{0x07, 0x07, 0x07, 0x07})             // back-to-back max packets
	f.Add([]byte{0x11, 0x32, 0x53, 0x21, 0x10, 0x47}) // mixed gaps and sizes
	f.Add([]byte{0xf1, 0x01, 0xf1, 0x01})             // long idle gaps between bursts
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}) // queue overflow (refusals)
	f.Fuzz(func(t *testing.T, schedule []byte) {
		if len(schedule) > 128 {
			schedule = schedule[:128]
		}
		serial := newPipe(t, defaultPipeOpts())
		boxed := newPipe(t, defaultPipeOpts())
		boxed.link.SetMailbox()

		conserve := func() {
			sent := boxed.src.FlitsSent + boxed.dst.FlitsSent
			consumed := boxed.src.FlitsConsumed + boxed.dst.FlitsConsumed
			inNet := int64(boxed.sw0.BufferedFlits() + boxed.sw1.BufferedFlits() +
				boxed.link.InFlight() + boxed.link.MailboxFlits())
			held := int64(boxed.src.InFlightFlits() + boxed.dst.InFlightFlits())
			if sent != consumed+inNet+held {
				t.Fatalf("cycle %d: mailbox pipe lost flits: sent=%d consumed=%d in-net=%d ni-held=%d",
					boxed.now, sent, consumed, inNet, held)
			}
		}

		// Each schedule byte: low 3 bits pick the packet size, high 4 bits
		// the idle gap before offering it. Both pipes see the same offers.
		id := uint64(0)
		for _, b := range schedule {
			for gap := int(b >> 4); gap > 0; gap-- {
				serial.step()
				boxed.stepBoxed()
				conserve()
			}
			id++
			flits := int(b&7) + 1
			accS := serial.src.Offer(mkPacket(id, flits))
			accB := boxed.src.Offer(mkPacket(id, flits))
			if accS != accB {
				t.Fatalf("packet %d: serial accepted=%v, mailboxed accepted=%v", id, accS, accB)
			}
		}
		// Drain: bounded backlog (16-packet queue × ≤8 flits plus wire and
		// NI pipelines) empties well within this window at 1 flit/cycle.
		for i := 0; i < 400; i++ {
			serial.step()
			boxed.stepBoxed()
			conserve()
		}

		if len(serial.delivered) != len(boxed.delivered) {
			t.Fatalf("serial delivered %d packets, mailboxed %d",
				len(serial.delivered), len(boxed.delivered))
		}
		for i := range serial.delivered {
			s, b := serial.delivered[i], boxed.delivered[i]
			if s.ID != b.ID || s.DeliveredAt != b.DeliveredAt {
				t.Fatalf("delivery %d diverged: serial pkt %d at %d, mailboxed pkt %d at %d",
					i, s.ID, s.DeliveredAt, b.ID, b.DeliveredAt)
			}
		}
		if n := boxed.link.MailboxFlits(); n != 0 {
			t.Fatalf("%d flits still parked in the mailbox after drain", n)
		}
		if boxed.link.Busy() {
			t.Fatal("mailboxed link still busy after drain")
		}
	})
}
