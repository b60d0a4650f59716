package noc

import (
	"testing"

	"wimc/internal/energy"
	"wimc/internal/sim"
)

// energyClassSwitch avoids importing energy in every test file.
func energyClassSwitch() energy.Class { return energy.ClassSwitch }

func TestLinkLatency(t *testing.T) {
	o := defaultPipeOpts()
	o.linkLatency = 5
	p := newPipe(t, o)
	pkt := mkPacket(1, 1)
	p.src.Offer(pkt)
	p.run(40)
	if len(p.delivered) != 1 {
		t.Fatal("no delivery")
	}
	// Baseline timing is 9 with latency 1; +4 extra wire cycles.
	if pkt.DeliveredAt != 13 {
		t.Fatalf("latency-5 link delivery at %d, want 13", pkt.DeliveredAt)
	}
}

func TestLinkLatencyFloor(t *testing.T) {
	l := NewLink(energy.ClassLinkMesh, 0, sim.RateOne, 0, 32, mustPart(t))
	if l.latency != 1 {
		t.Fatalf("latency floor = %d, want 1", l.latency)
	}
}

func TestLinkEnergyAccounting(t *testing.T) {
	o := defaultPipeOpts()
	o.linkPJPerBit = 5.0 // the serial I/O figure
	p := newPipe(t, o)
	pkt := mkPacket(1, 2)
	p.src.Offer(pkt)
	p.run(40)
	// 2 flits × 5 pJ/bit × 32 bits = 320 pJ on the link class.
	if got := p.meter.DynamicPJ(energy.ClassLinkMesh); got != 320 {
		t.Fatalf("link energy = %v pJ, want 320", got)
	}
}

func TestLinkRejectsSendWithoutTokens(t *testing.T) {
	l := NewLink(energy.ClassLinkSerial, 1, sim.RateFromFlitsPerCycle(0.1), 0, 32, mustPart(t))
	pkt := mkPacket(1, 4)
	// A fresh link holds one token: the first flit goes, and the next waits
	// ten cycles for the bucket to refill at 0.1 flits per cycle.
	if next := l.Accept(0, flitAt(pkt, 0), sim.NoSwitch); next != 10 {
		t.Fatalf("after one flit the link takes the next at cycle %d, want 10", next)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("accept without tokens did not panic")
		}
	}()
	l.Accept(0, flitAt(pkt, 1), sim.NoSwitch)
}

func TestLinkInFlightAccounting(t *testing.T) {
	m := mustPart(t)
	l := NewLink(energy.ClassLinkMesh, 3, sim.RateOne, 0, 32, m)
	sw := NewSwitch(9, 1, 2, 4, 32, 0, m)
	in := sw.AddInputPort(l)
	l.Connect(sw, 0, sw, in) // src side unused in this test
	pkt := mkPacket(1, 1)
	f := flitAt(pkt, 0)
	f.VC = 1
	l.Accept(0, f, sim.NoSwitch)
	if l.InFlight() != 1 {
		t.Fatal("in-flight count wrong")
	}
	l.Deliver(2) // before arrival cycle 3
	if l.InFlight() != 1 {
		t.Fatal("delivered early")
	}
	l.Deliver(3)
	if l.InFlight() != 0 {
		t.Fatal("not delivered at latency")
	}
	if sw.BufferedFlits() != 1 {
		t.Fatal("flit not in destination buffer")
	}
}

func TestCreditReturnLatency(t *testing.T) {
	m := mustPart(t)
	l := NewLink(energy.ClassLinkMesh, 2, sim.RateOne, 0, 32, m)
	src := NewSwitch(0, 1, 2, 4, 32, 0, m)
	dst := NewSwitch(1, 1, 2, 4, 32, 0, m)
	out := src.AddOutputPort(l, 4)
	in := dst.AddInputPort(l)
	l.Connect(src, out, dst, in)

	src.outVCs(out)[0].credits-- // pretend one flit was sent
	l.ReturnCredit(10, 0)
	l.Deliver(11)
	if got := credits(src, out, 0); got != 3 {
		t.Fatalf("credit returned early: %d", got)
	}
	l.Deliver(12)
	if got := credits(src, out, 0); got != 4 {
		t.Fatalf("credit not returned at latency: %d", got)
	}
}

// acceptLog is a Conduit that forwards to a link and records the cycle of
// each Accept.
type acceptLog struct {
	*Link
	at []sim.Cycle
}

func (a *acceptLog) Accept(now sim.Cycle, f Flit, next sim.SwitchID) sim.Cycle {
	a.at = append(a.at, now)
	return a.Link.Accept(now, f, next)
}

// TestPortCachesLinkAdmission drives a rate-limited link through a random
// schedule of packets, alternating busy spells that back flits up behind
// the bucket with quiet ones long enough to saturate its refill, and
// checks at every cycle that the upstream port's cached admission test,
// now >= acceptAt, agrees with a reference bucket that spends at each of
// the link's Accepts: the switch admits a flit exactly when the link's
// token bucket would. The link runs plain and in mailbox mode.
func TestPortCachesLinkAdmission(t *testing.T) {
	for _, tc := range []struct {
		name  string
		rate  sim.Rate
		boxed bool
	}{
		{"plain-12gbps", sim.RateFromGbps(12, 32, 2.5), false},
		{"plain-third", sim.RateFromFlitsPerCycle(1.0 / 3), false},
		{"mailbox-12gbps", sim.RateFromGbps(12, 32, 2.5), true},
		{"mailbox-third", sim.RateFromFlitsPerCycle(1.0 / 3), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := defaultPipeOpts()
			o.linkRate = tc.rate
			p := newPipe(t, o)
			step := p.step
			if tc.boxed {
				p.link.SetMailbox()
				step = p.stepBoxed
			}
			rec := &acceptLog{Link: p.link}
			p.sw0.out[p.link.srcPort].conduit = rec
			op := &p.sw0.out[p.link.srcPort]

			rng := sim.NewRand(uint64(tc.rate))
			ref := sim.NewTokenBucket(tc.rate)
			saturate := sim.Cycle(2*sim.RateOne/tc.rate) + 1
			var (
				id                 uint64
				busyUntil, quietTo sim.Cycle
				spent, held        int
				longIdle           bool
				lastAccept         sim.Cycle
			)
			for p.now < 8000 {
				if p.now >= quietTo {
					busyUntil = p.now + sim.Cycle(100+rng.Intn(300))
					quietTo = busyUntil + sim.Cycle(rng.Intn(600))
				}
				if p.now < busyUntil && rng.Intn(8) == 0 {
					id++
					p.src.Offer(mkPacket(id, 1+rng.Intn(4)))
				}
				admit := p.now >= op.acceptAt
				if want := ref.CanSpendAt(p.now); admit != want {
					t.Fatalf("cycle %d: port admits %v (acceptAt %d), reference bucket %v",
						p.now, admit, op.acceptAt, want)
				}
				if !admit && p.sw0.BufferedFlits() > 0 {
					held++
				}
				step()
				for k, at := range rec.at[spent:] {
					if !ref.TrySpendAt(at) {
						t.Fatalf("link accepted a flit at cycle %d that the reference bucket refuses", at)
					}
					longIdle = longIdle || (spent+k > 0 && at-lastAccept > saturate)
					lastAccept = at
				}
				spent = len(rec.at)
			}
			if spent < 500 || held == 0 || !longIdle {
				t.Fatalf("schedule too tame: %d accepts, %d cycles a flit waited for tokens, long idle %v",
					spent, held, longIdle)
			}
		})
	}
}

// TestPipeRingsStaySized drives a link and both NIs at one flit per cycle
// for thousands of cycles, a backlogged source streaming packets on every
// VC, with the link plain and in mailbox mode. Each of the four sim.Queue
// rings (the link's flit and credit wires, the source NI's pipe to its
// switch and the sink NI's pipe from its switch) keeps the latency+1
// slots it was sized with, and holds latency items between cycles: one
// per cycle in flight. The extra slot takes the push that comes before
// the same cycle's pop of a due item. The link and the NIs get different
// latencies, so a ring sized from the wrong one grows.
func TestPipeRingsStaySized(t *testing.T) {
	for _, boxed := range []bool{false, true} {
		o := defaultPipeOpts()
		o.linkLatency = 5
		o.niLatency = 3
		o.depth = 8
		p := newPipe(t, o)
		step := p.step
		if boxed {
			p.link.SetMailbox()
			step = p.stepBoxed
		}
		type ring interface {
			Len() int
			Cap() int
		}
		rings := []struct {
			name    string
			q       ring
			latency int
			peak    int
		}{
			{"link flits", &p.link.inflight, o.linkLatency, 0},
			{"link credits", &p.link.credits, o.linkLatency, 0},
			{"source NI pipe", &p.src.toSwitch, o.niLatency, 0},
			{"sink NI pipe", &p.dst.toSink, o.niLatency, 0},
		}
		const cycles = 4000
		id := uint64(0)
		for p.now < cycles {
			for p.src.QueueLen() < o.queueCap {
				id++
				p.src.Offer(mkPacket(id, 16))
			}
			step()
			for i := range rings {
				r := &rings[i]
				if r.q.Cap() != r.latency+1 {
					t.Fatalf("mailbox %v, cycle %d: %s ring has %d slots, sized %d",
						boxed, p.now-1, r.name, r.q.Cap(), r.latency+1)
				}
				r.peak = max(r.peak, r.q.Len())
			}
		}
		for _, r := range rings {
			if r.peak != r.latency {
				t.Errorf("mailbox %v: %s ring held up to %d items between cycles, want %d",
					boxed, r.name, r.peak, r.latency)
			}
		}
		if got := p.dst.FlitsConsumed; got < cycles-40 {
			t.Fatalf("mailbox %v: %d flits consumed in %d cycles: not one per cycle", boxed, got, cycles)
		}
	}
}

// mustPart returns a part of a fresh meter.
func mustPart(t *testing.T) *energy.Part {
	t.Helper()
	m, err := energy.NewMeter(2.5)
	if err != nil {
		t.Fatal(err)
	}
	return m.NewPart()
}
