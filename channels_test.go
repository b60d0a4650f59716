package wimc_test

import (
	"fmt"
	"testing"

	"wimc"
)

// channelSweep returns the sub-channel sweep methodology on the 4C4M
// exclusive channel under assign: uniform saturation load, 20% memory,
// 16-flit packets so transfers complete within one MAC turn, and one
// "K" axis point per sub-channel count.
func channelSweep(assign wimc.ChannelAssignment, ks ...int) *wimc.Spec {
	cfg := wimc.MustXCYM(4, 4, wimc.ArchWireless)
	cfg.Channel = wimc.ChannelExclusive
	cfg.ChannelAssign = assign
	s := wimc.NewSpec("channels", cfg, wimc.TrafficSpec{
		Kind:        wimc.TrafficUniform,
		Rate:        1.0,
		MemFraction: 0.2,
		PacketFlits: 16,
	})
	axis := wimc.Axis{Name: "K"}
	for _, k := range ks {
		axis.Points = append(axis.Points,
			wimc.ConfigAxisPoint(fmt.Sprintf("K=%d", k), map[string]any{"wireless_channels": k}))
	}
	s.Axes = []wimc.Axis{axis}
	return s
}

// TestChannelSweepPublicAPI drives the sub-channel sweep through the
// public Sweep and checks ordering and the headline property: more
// sub-channels, more saturation bandwidth.
func TestChannelSweepPublicAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation runs")
	}
	pts, err := wimc.Sweep(channelSweep(wimc.AssignSpatialReuse, 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points, want 2", len(pts))
	}
	for i, wantK := range []int{1, 4} {
		p := pts[i]
		if p.Config.Chips() != 4 || p.Config.WirelessChannels != wantK || p.Config.ChannelAssign != wimc.AssignSpatialReuse {
			t.Fatalf("point %d = %dC K=%d %s", i, p.Config.Chips(), p.Config.WirelessChannels, p.Config.ChannelAssign)
		}
		if p.Result == nil || p.Result.BandwidthPerCoreGbps <= 0 {
			t.Fatalf("point %d has no saturation bandwidth", i)
		}
	}
	if pts[1].Result.BandwidthPerCoreGbps <= pts[0].Result.BandwidthPerCoreGbps {
		t.Fatalf("K=4 bandwidth %.4f <= K=1 bandwidth %.4f",
			pts[1].Result.BandwidthPerCoreGbps, pts[0].Result.BandwidthPerCoreGbps)
	}
}

func TestChannelSweepRejectsBadInput(t *testing.T) {
	// 4C4M deploys 8 WIs; K=9 is unrealizable and must fail expansion
	// instead of silently clamping.
	if _, err := wimc.Sweep(channelSweep(wimc.AssignStaticPartition, 9)); err == nil {
		t.Fatal("K > WI count accepted")
	}
	// The dead-knob combination: K > 1 on the single shared channel.
	if _, err := wimc.Sweep(channelSweep(wimc.AssignSingle, 2)); err == nil {
		t.Fatal("K=2 with single assignment accepted")
	}
}
