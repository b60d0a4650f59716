package config

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestDefaultIsValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestXCYMPresets(t *testing.T) {
	tests := []struct {
		chips      int
		wantCores  int
		wantPerWI  int
		wantWIs    int
		wantCoresX int
	}{
		{1, 64, 16, 4, 8},
		{4, 64, 16, 1, 4},
		{8, 64, 8, 1, 2},
	}
	for _, tc := range tests {
		for _, arch := range []Architecture{ArchSubstrate, ArchInterposer, ArchWireless} {
			cfg, err := XCYM(tc.chips, 4, arch)
			if err != nil {
				t.Fatalf("XCYM(%d, %s): %v", tc.chips, arch, err)
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("XCYM(%d, %s) invalid: %v", tc.chips, arch, err)
			}
			if cfg.Cores() != tc.wantCores {
				t.Errorf("XCYM(%d): cores = %d, want %d", tc.chips, cfg.Cores(), tc.wantCores)
			}
			if cfg.Chips() != tc.chips {
				t.Errorf("XCYM(%d): chips = %d", tc.chips, cfg.Chips())
			}
			if cfg.CoresPerWI != tc.wantPerWI {
				t.Errorf("XCYM(%d): cores/WI = %d, want %d", tc.chips, cfg.CoresPerWI, tc.wantPerWI)
			}
			if cfg.WIsPerChip() != tc.wantWIs {
				t.Errorf("XCYM(%d): WIs/chip = %d, want %d", tc.chips, cfg.WIsPerChip(), tc.wantWIs)
			}
			if cfg.CoresX != tc.wantCoresX {
				t.Errorf("XCYM(%d): coresX = %d, want %d", tc.chips, cfg.CoresX, tc.wantCoresX)
			}
		}
	}
}

func TestXCYMRejectsNonPositiveChips(t *testing.T) {
	for _, chips := range []int{0, -4} {
		if _, err := XCYM(chips, 4, ArchWireless); err == nil {
			t.Fatalf("XCYM(%d) accepted", chips)
		}
	}
}

// TestXCYMLargePresets covers the generalized grids beyond the paper's
// 1/4/8-chip systems: near-square chip grids of 4x4-core chips, one WI per
// chip, proportionally scaled stacks.
func TestXCYMLargePresets(t *testing.T) {
	tests := []struct {
		chips, stacks  int
		wantGX, wantGY int
		wantCores      int
	}{
		{2, 2, 2, 1, 32},
		{16, 16, 4, 4, 256},
		{32, 32, 8, 4, 512},
		{64, 64, 8, 8, 1024},
	}
	for _, tc := range tests {
		for _, arch := range []Architecture{ArchSubstrate, ArchInterposer, ArchWireless, ArchHybrid} {
			cfg, err := XCYM(tc.chips, tc.stacks, arch)
			if err != nil {
				t.Fatalf("XCYM(%d, %d, %s): %v", tc.chips, tc.stacks, arch, err)
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("XCYM(%d, %d, %s) invalid: %v", tc.chips, tc.stacks, arch, err)
			}
			if cfg.ChipsX != tc.wantGX || cfg.ChipsY != tc.wantGY {
				t.Errorf("XCYM(%d): grid %dx%d, want %dx%d",
					tc.chips, cfg.ChipsX, cfg.ChipsY, tc.wantGX, tc.wantGY)
			}
			if cfg.Cores() != tc.wantCores {
				t.Errorf("XCYM(%d): cores = %d, want %d", tc.chips, cfg.Cores(), tc.wantCores)
			}
			if cfg.WIsPerChip() != 1 {
				t.Errorf("XCYM(%d): WIs/chip = %d, want 1", tc.chips, cfg.WIsPerChip())
			}
		}
	}
}

func TestChipGrid(t *testing.T) {
	tests := []struct{ n, x, y int }{
		{1, 1, 1}, {2, 2, 1}, {6, 3, 2}, {7, 7, 1}, {12, 4, 3},
		{16, 4, 4}, {32, 8, 4}, {36, 6, 6}, {64, 8, 8},
	}
	for _, tc := range tests {
		if x, y := chipGrid(tc.n); x != tc.x || y != tc.y {
			t.Errorf("chipGrid(%d) = %dx%d, want %dx%d", tc.n, x, y, tc.x, tc.y)
		}
	}
}

func TestDefaultStacks(t *testing.T) {
	tests := []struct{ chips, want int }{
		{1, 4}, {4, 4}, {8, 4}, {16, 16}, {15, 16}, {64, 64},
	}
	for _, tc := range tests {
		if got := DefaultStacks(tc.chips); got != tc.want {
			t.Errorf("DefaultStacks(%d) = %d, want %d", tc.chips, got, tc.want)
		}
	}
}

func TestXCYMNames(t *testing.T) {
	cfg := MustXCYM(4, 4, ArchWireless)
	if !strings.Contains(cfg.Name, "4C4M") || !strings.Contains(cfg.Name, "Wireless") {
		t.Fatalf("preset name = %q", cfg.Name)
	}
}

func TestMustXCYMPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustXCYM(0) did not panic")
		}
	}()
	MustXCYM(0, 4, ArchWireless)
}

func TestValidationErrors(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"bad arch", func(c *Config) { c.Arch = "quantum" }},
		{"bad routing", func(c *Config) { c.Routing = "magic" }},
		{"bad channel", func(c *Config) { c.Channel = "psychic" }},
		{"bad mac", func(c *Config) { c.MAC = "aloha" }},
		{"zero chips x", func(c *Config) { c.ChipsX = 0 }},
		{"zero cores y", func(c *Config) { c.CoresY = 0 }},
		{"zero vcs", func(c *Config) { c.VCs = 0 }},
		{"one vc wireless", func(c *Config) { c.VCs = 1 }},
		{"zero buffer", func(c *Config) { c.BufferDepth = 0 }},
		{"zero flit bits", func(c *Config) { c.FlitBits = 0 }},
		{"zero packet flits", func(c *Config) { c.PacketFlits = 0 }},
		{"zero clock", func(c *Config) { c.ClockGHz = 0 }},
		{"odd stacks", func(c *Config) { c.MemStacks = 3 }},
		{"zero injection queue", func(c *Config) { c.InjectionQueue = 0 }},
		{"negative warmup", func(c *Config) { c.WarmupCycles = -1 }},
		{"zero measure", func(c *Config) { c.MeasureCycles = 0 }},
		{"bad mem layers", func(c *Config) { c.MemLayers = 0 }},
		{"bad wireless rate", func(c *Config) { c.WirelessGbps = 0 }},
		{"bad ber", func(c *Config) { c.WirelessBER = 1.5 }},
		{"negative ber", func(c *Config) { c.WirelessBER = -0.1 }},
		{"bad channels", func(c *Config) { c.WirelessChannels = 0 }},
		{"bad post vcs", func(c *Config) { c.PostWirelessVCs = 0 }},
		{"post vcs too big", func(c *Config) { c.PostWirelessVCs = 8 }},
		{"indivisible wi density", func(c *Config) { c.CoresPerWI = 5 }},
		{"token buffer too small", func(c *Config) { c.MAC = MACToken; c.TXBufferFlits = 8 }},
		{"bad hop weight", func(c *Config) { c.WirelessHopWeight = 0 }},
		{"bad assignment", func(c *Config) { c.ChannelAssign = "telepathic" }},
		{"bad route select", func(c *Config) { c.RouteSelectMode = "psychic" }},
		{"adaptive on wireless", func(c *Config) { c.RouteSelectMode = SelectAdaptive }},
		{"adaptive on interposer", func(c *Config) {
			c.Arch = ArchInterposer
			c.RouteSelectMode = SelectAdaptive
		}},
		{"adaptive on substrate", func(c *Config) {
			c.Arch = ArchSubstrate
			c.RouteSelectMode = SelectAdaptive
		}},
		{"adaptive on tree routing", func(c *Config) {
			c.Arch = ArchHybrid
			c.Routing = RouteTree
			c.RouteSelectMode = SelectAdaptive
		}},
		{"zero wireless latency", func(c *Config) { c.WirelessLatency = 0 }},
		{"negative wireless latency", func(c *Config) { c.WirelessLatency = -3 }},
		{"channels exceed WIs", func(c *Config) {
			// 4C4M deploys 8 WIs (4 chip + 4 stack).
			c.Channel = ChannelExclusive
			c.ChannelAssign = AssignStaticPartition
			c.WirelessChannels = 9
		}},
		{"dead knob on single exclusive channel", func(c *Config) {
			// The pre-PR3 silent bug: the exclusive MAC drove one channel
			// no matter what wireless_channels said.
			c.Channel = ChannelExclusive
			c.WirelessChannels = 5
		}},
		{"assignment on crossbar", func(c *Config) { c.ChannelAssign = AssignSpatialReuse }},
		{"bad mac policy", func(c *Config) { c.MACPolicyMode = "psychic-priority" }},
		{"policy on crossbar", func(c *Config) { c.MACPolicyMode = PolicySkipEmpty }},
		{"drain-aware on token MAC", func(c *Config) {
			c.Channel = ChannelExclusive
			c.WirelessChannels = 1
			c.MAC = MACToken
			c.TXBufferFlits = c.PacketFlits
			c.MACPolicyMode = PolicyDrainAware
		}},
		{"per above one", func(c *Config) { c.WirelessPER = 1.5 }},
		{"negative per", func(c *Config) { c.WirelessPER = -0.1 }},
		{"per on wired arch", func(c *Config) {
			c.Arch = ArchInterposer
			c.WirelessPER = 0.1
		}},
		{"schedule on wired arch", func(c *Config) {
			c.Arch = ArchSubstrate
			c.FaultSchedule = []FaultEvent{{Cycle: 10, Kind: FaultWIFail}}
		}},
		{"dead retry budget", func(c *Config) { c.WirelessRetryLimit = 4 }},
		{"dead watchdog bound", func(c *Config) { c.FaultMaxPacketAge = 1000 }},
		{"negative retry budget", func(c *Config) {
			c.WirelessPER = 0.1
			c.WirelessRetryLimit = -1
		}},
		{"negative fault cycle", func(c *Config) {
			c.Arch = ArchHybrid
			c.FaultSchedule = []FaultEvent{{Cycle: -1, Kind: FaultWIFail}}
		}},
		{"unknown fault kind", func(c *Config) {
			c.Arch = ArchHybrid
			c.FaultSchedule = []FaultEvent{{Cycle: 10, Kind: "gremlin"}}
		}},
		{"wi-fail without wired failover class", func(c *Config) {
			// Arch stays wireless: no wired class to reroute onto.
			c.FaultSchedule = []FaultEvent{{Cycle: 10, Kind: FaultWIFail, WI: 0}}
		}},
		{"wi-fail on tree routing", func(c *Config) {
			c.Arch = ArchHybrid
			c.Routing = RouteTree
			c.FaultSchedule = []FaultEvent{{Cycle: 10, Kind: FaultWIFail, WI: 0}}
		}},
		{"wi-fail index out of range", func(c *Config) {
			// 4C4M deploys 8 WIs (4 chip + 4 stack).
			c.Arch = ArchHybrid
			c.FaultSchedule = []FaultEvent{{Cycle: 10, Kind: FaultWIFail, WI: 8}}
		}},
		{"outage on crossbar", func(c *Config) {
			c.FaultSchedule = []FaultEvent{{Cycle: 10, Kind: FaultOutage, SubChannel: 0, Duration: 50}}
		}},
		{"outage sub-channel out of range", func(c *Config) {
			c.Channel = ChannelExclusive
			c.WirelessChannels = 1
			c.FaultSchedule = []FaultEvent{{Cycle: 10, Kind: FaultOutage, SubChannel: 1, Duration: 50}}
		}},
		{"zero outage duration", func(c *Config) {
			c.Channel = ChannelExclusive
			c.WirelessChannels = 1
			c.FaultSchedule = []FaultEvent{{Cycle: 10, Kind: FaultOutage, SubChannel: 0}}
		}},
		// Physical-layer knobs surfaced by wimclint's deadknob analyzer:
		// until this cleanup none of these were read by Validate at all.
		{"nan mesh energy", func(c *Config) { c.MeshPJPerBit = math.NaN() }},
		{"negative serial energy", func(c *Config) { c.SerialPJPerBit = -1 }},
		{"inf interposer rate", func(c *Config) { c.InterposerGbps = math.Inf(1) }},
		{"zero serial rate", func(c *Config) { c.SerialGbps = 0 }},
		{"zero wide-io rate", func(c *Config) { c.WideIOGbps = 0 }},
		{"negative switch static power", func(c *Config) { c.SwitchStaticMW = -2 }},
		{"negative tsv energy", func(c *Config) { c.TSVPJPerBitPerLayer = -0.05 }},
		{"negative local energy", func(c *Config) { c.LocalPJPerBit = -0.1 }},
		{"negative wireless energy", func(c *Config) { c.WirelessPJPerBit = -2.3 }},
		{"negative crossbar egress", func(c *Config) { c.CrossbarEgressGbp = -1 }},
		{"zero chip edge", func(c *Config) { c.ChipEdgeMM = 0 }},
		{"nan chip edge", func(c *Config) { c.ChipEdgeMM = math.NaN() }},
		{"zero pipeline stages", func(c *Config) { c.PipelineStages = 0 }},
		{"zero serial latency", func(c *Config) { c.SerialLatency = 0 }},
		{"zero interposer latency", func(c *Config) { c.InterposerLatency = 0 }},
		{"zero wide-io latency", func(c *Config) { c.WideIOLatency = 0 }},
		{"negative tsv latency", func(c *Config) { c.TSVLatency = -1 }},
		{"boundary fraction zero", func(c *Config) {
			// Previously clamped to 1 silently by the topology builder —
			// the exact reinterpret-instead-of-reject bug class.
			c.Arch = ArchInterposer
			c.InterposerBoundaryFr = 0
		}},
		{"boundary fraction above one", func(c *Config) {
			c.Arch = ArchInterposer
			c.InterposerBoundaryFr = 1.5
		}},
		{"sleep power exceeds active power", func(c *Config) {
			c.SleepEnabled = true
			c.WISleepMW = 2 * c.WIRxActiveMW
		}},
		{"negative sleep power", func(c *Config) { c.WISleepMW = -0.05 }},
	}
	for _, tc := range mutations {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Default()
			tc.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatalf("mutation %q accepted", tc.name)
			}
		})
	}
}

// TestBufferDepthsFitCredits: a switch counts each output VC's downstream
// credits in 16 bits, seeded from buffer_depth (every VC buffer) and
// tx_buffer_flits (a WI transmit buffer), so 32,767 is the deepest buffer
// Validate accepts for either, on any architecture; 32,768 would wrap to a
// negative credit count and stop the port.
func TestBufferDepthsFitCredits(t *testing.T) {
	for _, field := range []struct {
		name string
		set  func(*Config, int)
	}{
		{"buffer_depth", func(c *Config, v int) { c.BufferDepth = v }},
		{"tx_buffer_flits", func(c *Config, v int) { c.TXBufferFlits = v }},
	} {
		for _, arch := range []Architecture{ArchWireless, ArchInterposer} {
			cfg := MustXCYM(4, 4, arch)
			field.set(&cfg, math.MaxInt16)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%s: %s = %d rejected: %v", arch, field.name, math.MaxInt16, err)
			}
			field.set(&cfg, math.MaxInt16+1)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), field.name) || !strings.Contains(err.Error(), "16-bit") {
				t.Fatalf("%s: %s = %d: got %v, want a rejection naming the field and the 16-bit credits",
					arch, field.name, math.MaxInt16+1, err)
			}
		}
	}
}

func TestMultiChannelAssignmentsValid(t *testing.T) {
	for _, assign := range []ChannelAssignment{AssignStaticPartition, AssignSpatialReuse} {
		for _, k := range []int{1, 2, 4, 8} {
			cfg := MustXCYM(4, 4, ArchWireless)
			cfg.Channel = ChannelExclusive
			cfg.ChannelAssign = assign
			cfg.WirelessChannels = k
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%s K=%d rejected: %v", assign, k, err)
			}
		}
	}
}

// TestFaultConfigsValid covers the accepted fault-model shapes: a bare PER
// curve on any wireless-bearing arch, a retry budget and watchdog bound
// riding an active model, an outage on the exclusive fabric and a WI
// fail-stop on the hybrid.
func TestFaultConfigsValid(t *testing.T) {
	per := MustXCYM(4, 4, ArchWireless)
	per.WirelessPER = 0.05
	per.WirelessRetryLimit = 4
	per.FaultMaxPacketAge = 100000
	if err := per.Validate(); err != nil {
		t.Fatalf("PER config rejected: %v", err)
	}
	out := MustXCYM(4, 4, ArchWireless)
	out.Channel = ChannelExclusive
	out.ChannelAssign = AssignStaticPartition
	out.WirelessChannels = 2
	out.FaultSchedule = []FaultEvent{{Cycle: 100, Kind: FaultOutage, SubChannel: 1, Duration: 50}}
	if err := out.Validate(); err != nil {
		t.Fatalf("outage config rejected: %v", err)
	}
	kill := MustXCYM(4, 4, ArchHybrid)
	kill.FaultSchedule = []FaultEvent{{Cycle: 100, Kind: FaultWIFail, WI: 7}}
	if err := kill.Validate(); err != nil {
		t.Fatalf("wi-fail config rejected: %v", err)
	}
}

// TestMACPoliciesValid covers the accepted (policy, MAC) matrix on the
// exclusive channel: every policy with the control-packet MAC, and the
// queue-scheduling policies (which need no announcements) with the token
// MAC.
func TestMACPoliciesValid(t *testing.T) {
	for _, mac := range []MACMode{MACControlPacket, MACToken} {
		for _, pol := range []MACPolicy{PolicyRotate, PolicySkipEmpty, PolicyDrainAware, PolicyWeighted} {
			if mac == MACToken && pol == PolicyDrainAware {
				continue // rejected pair, covered by TestValidationErrors
			}
			cfg := MustXCYM(4, 4, ArchWireless)
			cfg.Channel = ChannelExclusive
			cfg.WirelessChannels = 1
			cfg.MAC = mac
			cfg.MACPolicyMode = pol
			if mac == MACToken {
				cfg.TXBufferFlits = cfg.PacketFlits
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%s/%s rejected: %v", mac, pol, err)
			}
		}
	}
}

func TestRouteSelectValid(t *testing.T) {
	// Adaptive selection is exactly the hybrid + shortest-path combination;
	// the empty value means static everywhere.
	c := MustXCYM(4, 4, ArchHybrid)
	c.RouteSelectMode = SelectAdaptive
	if err := c.Validate(); err != nil {
		t.Fatalf("adaptive on hybrid rejected: %v", err)
	}
	for _, arch := range []Architecture{ArchSubstrate, ArchInterposer, ArchWireless, ArchHybrid} {
		c := MustXCYM(4, 4, arch)
		c.RouteSelectMode = ""
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: empty route_select rejected: %v", arch, err)
		}
		c.RouteSelectMode = SelectStatic
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: static route_select rejected: %v", arch, err)
		}
	}
}

func TestTotalWIs(t *testing.T) {
	tests := []struct {
		chips, stacks, want int
	}{
		{1, 4, 8}, // 4 on-chip clusters + 4 stacks
		{4, 4, 8},
		{8, 4, 12},
		{64, 64, 128},
	}
	for _, tc := range tests {
		cfg := MustXCYM(tc.chips, tc.stacks, ArchWireless)
		if got := cfg.TotalWIs(); got != tc.want {
			t.Errorf("TotalWIs(%dC%dM) = %d, want %d", tc.chips, tc.stacks, got, tc.want)
		}
	}
	if got := MustXCYM(4, 4, ArchInterposer).TotalWIs(); got != 0 {
		t.Errorf("wired TotalWIs = %d, want 0", got)
	}
}

func TestWiredArchSkipsWirelessChecks(t *testing.T) {
	cfg := MustXCYM(4, 4, ArchInterposer)
	cfg.WirelessGbps = 0 // irrelevant for wired systems
	cfg.VCs = 1
	if err := cfg.Validate(); err != nil {
		t.Fatalf("wired config rejected on wireless fields: %v", err)
	}
}

func TestDerivedCounts(t *testing.T) {
	cfg := MustXCYM(8, 4, ArchWireless)
	if cfg.CoresPerChip() != 8 {
		t.Fatalf("cores/chip = %d, want 8", cfg.CoresPerChip())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	orig := MustXCYM(4, 4, ArchWireless)
	orig.Seed = 99
	orig.WirelessBER = 1e-9
	data, err := orig.MarshalPretty()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, orig) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, orig)
	}
}

func TestParseAppliesDefaults(t *testing.T) {
	cfg, err := Parse([]byte(`{"seed": 7}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 {
		t.Fatalf("seed = %d, want 7", cfg.Seed)
	}
	if cfg.VCs != Default().VCs {
		t.Fatalf("vcs = %d, want default %d", cfg.VCs, Default().VCs)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte(`{"arch": "telepathy"}`)); err == nil {
		t.Fatal("invalid arch accepted through Parse")
	}
	if _, err := Parse([]byte(`{nope`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestWIsPerChipMinimumOne(t *testing.T) {
	cfg := Default()
	cfg.CoresPerWI = 1000 // denser than the chip: still one WI for connectivity
	if got := cfg.WIsPerChip(); got != 1 {
		t.Fatalf("WIsPerChip = %d, want 1", got)
	}
	cfg.CoresPerWI = 0
	if got := cfg.WIsPerChip(); got != 0 {
		t.Fatalf("WIsPerChip with zero density = %d, want 0", got)
	}
}
