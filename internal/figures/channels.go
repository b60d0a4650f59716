package figures

import (
	"wimc/internal/config"
	"wimc/internal/spec"
)

// defaultChannelKs is the sub-channel ladder of the channel sweep.
var defaultChannelKs = []int{1, 2, 4, 8}

// defaultChannelSizes is the system-size ladder: the paper's 4-chip design
// point up to the 64-chip wall exposed by the scale sweep.
var defaultChannelSizes = []int{4, 16, 64}

// channelSweepPacketFlits sizes packets to one receive-buffer reservation
// (see ChannelSweep).
const channelSweepPacketFlits = 16

// ChannelSweep measures how much of the wireless bandwidth wall spatial
// frequency reuse recovers: the exclusive channel model (the literal
// shared-medium PHY) is rerun across system sizes at K ∈ {1,2,4,8}
// orthogonal sub-channels under the spatial-reuse assignment, at maximum
// load with 20% memory traffic (the scale-sweep methodology). Reported per
// (size, K): saturation bandwidth per core and packet energy per bit — the
// cost side is the extra control broadcasts and awake time K concurrent
// MAC turn sequences burn.
//
// The sweep uses 16-flit packets (the receive-buffer depth) so a packet
// completes within one announce/transmit turn: with the paper's 64-flit
// packets a transfer needs four turns of its source WI, and at 64 chips a
// single turn rotation already exceeds any practical measurement window —
// every in-flight packet would be perpetually partial and delivered
// bandwidth would read zero for every K alike.
func ChannelSweep(o Opts) (*Table, error) {
	sizes := o.ScaleSizes
	if len(sizes) == 0 {
		sizes = defaultChannelSizes
	}
	ks := o.ChannelKs
	if len(ks) == 0 {
		ks = defaultChannelKs
	}
	assign := o.ChannelAssign
	if assign == "" {
		assign = config.AssignSpatialReuse
	}
	t := &Table{
		ID:     "channels",
		Title:  f("Sub-channel count vs saturation bandwidth and energy (exclusive channel, %s)", assign),
		Header: []string{"config", "cores"},
		Notes: []string{
			f("extension experiment: K orthogonal mm-wave sub-channels, WIs grouped by config.ChannelAssign %q", assign),
			"bw in Gbps/core at saturation (uniform, 20% memory, 16-flit packets); energy in pJ/bit",
		},
	}
	for _, k := range ks {
		t.Header = append(t.Header, f("bw_k%d", k))
	}
	for _, k := range ks {
		t.Header = append(t.Header, f("pj_bit_k%d", k))
	}
	sys, err := systems(o, sizes, []config.Architecture{config.ArchWireless}, func(cfg *config.Config) {
		cfg.Channel = config.ChannelExclusive
		cfg.ChannelAssign = assign
	})
	if err != nil {
		return nil, err
	}
	tr := uniform(1.0, 0.2)
	tr.PacketFlits = channelSweepPacketFlits
	pts, rs, err := grid(o, tr, sys, fieldAxis(spec.ConfigPoint, "wireless_channels", ks))
	if err != nil {
		return nil, err
	}
	sizeRows(t, pts, rs, len(ks), bw("%.4f"), pjBitCell)
	return t, nil
}
