package core

import (
	"testing"

	"wimc/internal/config"
	"wimc/internal/noc"
)

// multiChannelConfig returns an exclusive-channel test configuration with
// k sub-channels under the given assignment.
func multiChannelConfig(assign config.ChannelAssignment, k int) config.Config {
	cfg := exclusiveConfig()
	cfg.ChannelAssign = assign
	cfg.WirelessChannels = k
	return cfg
}

func TestStaticPartitionGroups(t *testing.T) {
	r := newRig(t, 5, multiChannelConfig(config.AssignStaticPartition, 2))
	groups := r.fabric.SubChannelMembers()
	if len(groups) != 2 {
		t.Fatalf("%d sub-channels, want 2", len(groups))
	}
	want := [][]int{{0, 2, 4}, {1, 3}}
	for c := range want {
		if len(groups[c]) != len(want[c]) {
			t.Fatalf("channel %d members %v, want %v", c, groups[c], want[c])
		}
		for i := range want[c] {
			if groups[c][i] != want[c][i] {
				t.Fatalf("channel %d members %v, want %v", c, groups[c], want[c])
			}
		}
	}
}

func TestSpatialReuseGroupsByPosition(t *testing.T) {
	// Rig WIs sit on a line along x (harness); with K=2 the package grid
	// splits into a left and a right zone.
	r := newRig(t, 6, multiChannelConfig(config.AssignSpatialReuse, 2))
	groups := r.fabric.SubChannelMembers()
	if len(groups) != 2 {
		t.Fatalf("%d sub-channels, want 2", len(groups))
	}
	// testConfig's grid is 8 columns wide: x in [0,3] is the left zone.
	if len(groups[0]) != 4 || len(groups[1]) != 2 {
		t.Fatalf("zone split %v, want indexes 0-3 left / 4-5 right", groups)
	}
}

func TestSingleAssignmentIsOneGroup(t *testing.T) {
	// With assignment "single" the channel-count knob is inert (config
	// validation pins it to 1 for validated configs).
	r := newRig(t, 4, multiChannelConfig(config.AssignSingle, 4))
	groups := r.fabric.SubChannelMembers()
	if len(groups) != 1 || len(groups[0]) != 4 {
		t.Fatalf("single assignment built %v, want one group of 4", groups)
	}
}

// TestSubChannelsFormAsWIsJoin: AddWI makes each WI a member of its
// sub-channel and, under rotate, queues it for turns at once, so the MAC
// invariants hold before any Launch. An idle fabric under any other policy
// queues nobody and needs no Launch, from cycle 0 on.
func TestSubChannelsFormAsWIsJoin(t *testing.T) {
	for _, pol := range []config.MACPolicy{config.PolicyRotate, config.PolicySkipEmpty} {
		cfg := multiChannelConfig(config.AssignStaticPartition, 2)
		cfg.MACPolicyMode = pol
		r := newRig(t, 5, cfg)
		if err := r.fabric.CheckMACInvariants(); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		rotate := pol == config.PolicyRotate
		for ci, sub := range r.fabric.subs {
			for slot, w := range sub.members {
				if w.sub != sub || w.subSlot != slot || sub.inQueue[slot] != rotate {
					t.Fatalf("%s: sub-channel %d slot %d holds WI %d (sub-channel slot %d), queued %v",
						pol, ci, slot, w.Index, w.subSlot, sub.inQueue[slot])
				}
			}
		}
		if got := r.fabric.LaunchNeeded(); got != rotate {
			t.Fatalf("%s: idle fabric LaunchNeeded = %v, want %v", pol, got, rotate)
		}
	}
}

// TestSubChannelsTransmitConcurrently is the point of the refactor: two
// sub-channels move two flits in the same cycle, which the single shared
// medium never can.
func TestSubChannelsTransmitConcurrently(t *testing.T) {
	run := func(cfg config.Config) (launched int64, peak int64) {
		r := newRig(t, 4, cfg)
		r.send(t, 1, 0, 2, 8) // WI 0 and WI 2 share a channel (partition K=2)
		r.send(t, 2, 1, 3, 8) // WI 1 and WI 3 the other
		prev := int64(0)
		for i := 0; i < 400; i++ {
			r.step()
			if d := r.fabric.Launched - prev; d > peak {
				peak = d
			}
			prev = r.fabric.Launched
		}
		if len(r.delivered) != 2 {
			t.Fatalf("delivered %d/2", len(r.delivered))
		}
		return r.fabric.Launched, peak
	}
	_, onePeak := run(multiChannelConfig(config.AssignSingle, 1))
	if onePeak > 1 {
		t.Fatalf("single channel launched %d flits in one cycle", onePeak)
	}
	_, twoPeak := run(multiChannelConfig(config.AssignStaticPartition, 2))
	if twoPeak < 2 {
		t.Fatal("two sub-channels never transmitted concurrently")
	}
	if twoPeak > 2 {
		t.Fatalf("two sub-channels launched %d flits in one cycle", twoPeak)
	}
}

// TestCrossChannelTraffic verifies a turn holder may address WIs outside
// its own sub-channel group (receivers are multi-band).
func TestCrossChannelTraffic(t *testing.T) {
	for _, mac := range []config.MACMode{config.MACControlPacket, config.MACToken} {
		cfg := multiChannelConfig(config.AssignStaticPartition, 2)
		cfg.MAC = mac
		if mac == config.MACToken {
			cfg.TXBufferFlits = cfg.PacketFlits
		}
		r := newRig(t, 4, cfg)
		r.send(t, 1, 0, 1, 8) // WI 0 (channel 0) -> WI 1 (channel 1)
		r.send(t, 2, 3, 2, 8) // WI 3 (channel 1) -> WI 2 (channel 0)
		r.run(800)
		if len(r.delivered) != 2 {
			t.Fatalf("%s: delivered %d/2 across channel groups", mac, len(r.delivered))
		}
	}
}

// TestEmptySpatialZoneSkipped verifies unpopulated zones are dead capacity,
// not a crash: 6 WIs on the harness line leave one of 3 zones empty.
func TestEmptySpatialZoneSkipped(t *testing.T) {
	r := newRig(t, 6, multiChannelConfig(config.AssignSpatialReuse, 3))
	if got := r.fabric.ConcurrencyBudget(); got != 2 {
		t.Fatalf("concurrency budget %d, want 2 populated of 3 zones", got)
	}
	r.send(t, 1, 0, 5, 8)
	r.run(600)
	if len(r.delivered) != 1 {
		t.Fatal("delivery failed with an empty spatial zone")
	}
}

// TestMultiChannelBERRetransmission exercises the retransmission path per
// sub-channel.
func TestMultiChannelBERRetransmission(t *testing.T) {
	cfg := multiChannelConfig(config.AssignStaticPartition, 2)
	cfg.WirelessBER = 0.01
	r := newRig(t, 4, cfg)
	r.send(t, 1, 0, 2, 8)
	r.send(t, 2, 1, 3, 8)
	r.run(1200)
	if len(r.delivered) != 2 {
		t.Fatalf("delivered %d/2 under BER on sub-channels", len(r.delivered))
	}
	if r.fabric.Retransmits == 0 {
		t.Fatal("no retransmissions at BER 1e-2")
	}
}

// TestCatchUpSkippedIdleSpans asserts the engine's active-set contract on
// the multi-channel crossbar fabric: skipping Launch over idle spans (the
// LaunchNeeded predicate) and settling them in O(1) via CatchUp yields the
// same awake/sleep accounting and the same subsequent arbitration as
// ticking every cycle, with K > 1 sub-channels and both gating modes.
func TestCatchUpSkippedIdleSpans(t *testing.T) {
	for _, sleep := range []bool{true, false} {
		cfg := testConfig()
		cfg.WirelessChannels = 4
		cfg.SleepEnabled = sleep

		run := func(skipIdle bool) (*rig, *noc.Packet) {
			r := newRig(t, 6, cfg)
			step := func() {
				if !skipIdle || r.fabric.LaunchNeeded() {
					r.fabric.Launch(r.now)
				}
				r.sweep()
				r.fabric.Deliver(r.now)
				r.tickEndpoints()
				r.now++
			}
			// Busy prologue, long idle span, then fresh traffic whose
			// arbitration depends on the rotation state CatchUp must replay.
			r.send(t, 1, 0, 3, 8)
			for r.now < 80 {
				step()
			}
			for r.now < 300 {
				step() // idle: skipIdle rigs never call Launch here
			}
			p := r.send(t, 2, 1, 4, 8)
			for r.now < 420 {
				step()
			}
			r.fabric.CatchUp(r.now - 1) // settle trailing skipped cycles
			if len(r.delivered) != 2 {
				t.Fatalf("delivered %d/2 (skipIdle=%v)", len(r.delivered), skipIdle)
			}
			return r, p
		}

		full, pFull := run(false)
		skip, pSkip := run(true)
		if full.fabric.AwakeCycles != skip.fabric.AwakeCycles ||
			full.fabric.SleepCycles != skip.fabric.SleepCycles {
			t.Fatalf("sleep=%v: awake/sleep %d/%d with skipped spans, want %d/%d",
				sleep, skip.fabric.AwakeCycles, skip.fabric.SleepCycles,
				full.fabric.AwakeCycles, full.fabric.SleepCycles)
		}
		if pFull.DeliveredAt != pSkip.DeliveredAt {
			t.Fatalf("sleep=%v: post-gap packet delivered at %d with skipped spans, want %d",
				sleep, pSkip.DeliveredAt, pFull.DeliveredAt)
		}
	}
}
