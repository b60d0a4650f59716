package core

import (
	"testing"

	"wimc/internal/config"
)

// exclusiveConfig returns a test configuration on the literal shared
// channel.
func exclusiveConfig() config.Config {
	cfg := testConfig()
	cfg.Channel = config.ChannelExclusive
	cfg.MAC = config.MACControlPacket
	return cfg
}

func TestExclusiveSingleTransmitterPerCycle(t *testing.T) {
	cfg := exclusiveConfig()
	r := newRig(t, 4, cfg)
	r.send(t, 1, 0, 2, 8)
	r.send(t, 2, 1, 3, 8)
	r.send(t, 3, 3, 0, 8)
	prev := r.fabric.Launched
	for i := 0; i < 800; i++ {
		r.step()
		if d := r.fabric.Launched - prev; d > 1 {
			t.Fatalf("exclusive channel launched %d flits in one cycle", d)
		}
		prev = r.fabric.Launched
	}
	if len(r.delivered) != 3 {
		t.Fatalf("delivered %d/3 over exclusive channel", len(r.delivered))
	}
}

func TestExclusiveChannelRateBound(t *testing.T) {
	// A 16 Gbps channel at 2.5 GHz/32-bit flits moves 0.2 flits/cycle:
	// launches over N cycles must respect that (control flits also consume
	// channel time, so data throughput is strictly below the raw rate).
	cfg := exclusiveConfig()
	r := newRig(t, 2, cfg)
	r.send(t, 1, 0, 1, 8)
	r.send(t, 2, 0, 1, 8)
	const n = 300
	r.run(n)
	rate := cfg.WirelessGbps / (float64(cfg.FlitBits) * cfg.ClockGHz)
	if got := float64(r.fabric.Launched); got > rate*n+2 {
		t.Fatalf("launched %v flits in %d cycles: exceeds the %.2f flits/cycle channel", got, n, rate)
	}
}

func TestControlPacketsBroadcastPerTurn(t *testing.T) {
	cfg := exclusiveConfig()
	r := newRig(t, 3, cfg)
	r.send(t, 1, 0, 1, 8)
	r.run(600)
	if r.fabric.ControlPackets == 0 {
		t.Fatal("no control packets broadcast")
	}
	// Idle WIs pass their turn: with mostly empty queues the pass counter
	// grows steadily.
	if r.fabric.TokenPasses == 0 {
		t.Fatal("no idle turns recorded")
	}
	if len(r.delivered) != 1 {
		t.Fatal("no delivery")
	}
}

func TestControlMACTransmitsPartialPackets(t *testing.T) {
	// The TX buffer (8 flits/VC) cannot hold the 16-flit packet, so the
	// control MAC must move it across several turns as partial packets —
	// the paper's headline MAC property.
	cfg := exclusiveConfig()
	cfg.PacketFlits = 16
	r := newRig(t, 2, cfg)
	p := r.send(t, 1, 0, 1, 16)
	r.run(1500)
	if len(r.delivered) != 1 {
		t.Fatalf("partial-packet transfer failed: %d delivered", len(r.delivered))
	}
	if p.Retransmits != 0 {
		t.Fatal("unexpected retransmissions")
	}
	// More than one control packet announced flits of this packet.
	if r.fabric.ControlPackets < 2 {
		t.Fatalf("only %d control packets for a multi-turn transfer", r.fabric.ControlPackets)
	}
}

func TestTokenMACWholePacketsOnly(t *testing.T) {
	cfg := exclusiveConfig()
	cfg.MAC = config.MACToken
	cfg.PacketFlits = 8
	cfg.TXBufferFlits = 8 // exactly one whole packet per VC queue
	r := newRig(t, 2, cfg)
	p := r.send(t, 1, 0, 1, 8)
	r.run(1200)
	if len(r.delivered) != 1 {
		t.Fatalf("token MAC failed to deliver: %d", len(r.delivered))
	}
	if p.DeliveredAt == 0 {
		t.Fatal("timestamp missing")
	}
}

func TestTokenMACPassesWithoutCompletePacket(t *testing.T) {
	cfg := exclusiveConfig()
	cfg.MAC = config.MACToken
	cfg.PacketFlits = 8
	cfg.TXBufferFlits = 8
	r := newRig(t, 3, cfg)
	// No traffic at all: turns must rotate via token passes only.
	r.run(100)
	if r.fabric.TokenPasses == 0 {
		t.Fatal("idle token MAC never passed the token")
	}
	if r.fabric.Launched != 0 {
		t.Fatal("idle fabric launched flits")
	}
}

func TestControlMACWorksWithSmallBuffers(t *testing.T) {
	// The paper's §III.D claim: the token MAC must buffer whole packets in
	// the WI (config validation enforces TXBufferFlits >= PacketFlits),
	// while the control-packet MAC streams partial packets through a
	// buffer half that size.
	cfg := exclusiveConfig()
	cfg.PacketFlits = 16
	cfg.TXBufferFlits = 4
	r := newRig(t, 2, cfg)
	r.send(t, 1, 0, 1, 16)
	r.run(2000)
	if len(r.delivered) != 1 {
		t.Fatal("control MAC failed with sub-packet TX buffers")
	}
	tokenCfg := cfg
	tokenCfg.MAC = config.MACToken
	if err := tokenCfg.Validate(); err == nil {
		t.Fatal("token MAC accepted sub-packet TX buffers")
	}
}

func TestBothMACsCompleteCompetingBursts(t *testing.T) {
	// Both MACs must complete competing bursts; their latency ordering is a
	// provisioning trade-off (the token MAC's whole-packet buffers buy it
	// fewer turn overheads) reported by the wimcbench "mac" ablation.
	run := func(mac config.MACMode) int64 {
		cfg := exclusiveConfig()
		cfg.MAC = mac
		cfg.PacketFlits = 8
		cfg.TXBufferFlits = 8
		cfg.BufferDepth = 4 // receiver pressure stalls the token holder
		r := newRig(t, 3, cfg)
		id := uint64(1)
		for src := 0; src < 2; src++ {
			for k := 0; k < 3; k++ {
				r.send(t, id, src, 2, 8)
				id++
			}
		}
		r.run(4000)
		if len(r.delivered) != 6 {
			t.Fatalf("%s: delivered %d/6", mac, len(r.delivered))
		}
		var last int64
		for _, p := range r.delivered {
			if p.DeliveredAt > last {
				last = p.DeliveredAt
			}
		}
		return last
	}
	ctrl := run(config.MACControlPacket)
	tok := run(config.MACToken)
	if ctrl <= 0 || tok <= 0 {
		t.Fatalf("burst completion times %d / %d", ctrl, tok)
	}
}

func TestExclusiveAllAwakeDuringControl(t *testing.T) {
	cfg := exclusiveConfig()
	r := newRig(t, 3, cfg)
	r.send(t, 1, 0, 1, 8)
	// During control phases every WI listens; with traffic flowing the
	// awake fraction must exceed the crossbar's on-demand level.
	r.run(400)
	if r.fabric.AwakeCycles == 0 {
		t.Fatal("no awake cycles recorded")
	}
}

func TestExclusiveBERRetransmission(t *testing.T) {
	cfg := exclusiveConfig()
	cfg.WirelessBER = 0.02 // ~47% flit error rate: retransmissions certain
	cfg.PacketFlits = 16
	r := newRig(t, 2, cfg)
	r.send(t, 1, 0, 1, 16)
	r.run(4000)
	if len(r.delivered) != 1 {
		t.Fatalf("delivered %d under BER on exclusive channel", len(r.delivered))
	}
	if r.fabric.Retransmits == 0 {
		t.Fatal("no retransmissions recorded")
	}
}
