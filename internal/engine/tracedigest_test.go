package engine

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"wimc/internal/config"
)

// traceDigestFile pins the SHA-256 of the packet-trace bytes of a few runs
// (one "<hex digest>  <name>" line each). The bench's golden digests hash
// Results, which carry no packet IDs, source/destination pairs or per-packet
// timing; the trace does, so a change to traffic generation that reorders
// draws or renumbers packets shows here even when every aggregate agrees.
const traceDigestFile = "testdata/trace.sha256"

// traceDigestCases are the pinned runs. Each names its configuration and
// the engine shard counts that must all produce the pinned bytes.
func traceDigestCases() []struct {
	name   string
	p      Params
	shards []int
} {
	sat16 := config.MustXCYM(16, 16, config.ArchWireless)
	sat16.WarmupCycles = 200
	sat16.MeasureCycles = 3800

	hybrid4 := config.MustXCYM(4, 4, config.ArchHybrid)
	hybrid4.WarmupCycles = 200
	hybrid4.MeasureCycles = 2800
	hybrid4.DrainCycles = 2000

	hot16 := config.MustXCYM(16, 16, config.ArchWireless)
	hot16.WarmupCycles = 200
	hot16.MeasureCycles = 1800
	hot16.DrainCycles = 4000

	app16 := config.MustXCYM(16, 16, config.ArchWireless)
	app16.WarmupCycles = 500
	app16.MeasureCycles = 5500

	return []struct {
		name   string
		p      Params
		shards []int
	}{
		// 16-flit packets leave the saturated source queues fast enough
		// that packets generated after a queue refills are delivered inside
		// the window, so this trace also pins the room flags.
		{"16C-wireless-uniform-rate1", Params{Cfg: sat16,
			Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 1.0, MemFraction: 0.2, PacketFlits: 16}}, []int{0, 2}},
		{"4C-hybrid-uniform-reads", Params{Cfg: hybrid4,
			Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.01, MemFraction: 0.4, MemReadFraction: 0.5}}, []int{0}},
		{"16C-wireless-hotspot", Params{Cfg: hot16,
			Traffic: TrafficSpec{Kind: TrafficHotspot, Rate: 0.01, MemFraction: 0.2, HotspotFraction: 0.3, HotspotCore: 5}}, []int{0}},
		{"16C-wireless-app-canneal", Params{Cfg: app16,
			Traffic: TrafficSpec{Kind: TrafficApp, App: "canneal"}}, []int{0}},
	}
}

// readDigests parses a digest file of "<hex digest>  <name>" lines into
// name → hex digest.
func readDigests(t *testing.T, file string) map[string]string {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", file, sc.Text())
		}
		out[fields[1]] = fields[0]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTraceDigests runs each pinned configuration with a packet trace and
// compares the SHA-256 of the trace bytes with traceDigestFile. A
// deliberate behavior change must say so and rewrite the file with the
// digests this test logs.
func TestTraceDigests(t *testing.T) {
	want := readDigests(t, traceDigestFile)
	for _, tc := range traceDigestCases() {
		for _, shards := range tc.shards {
			p := tc.p
			p.Cfg.EngineShards = shards
			h := sha256.New()
			p.Trace = h
			r := mustRun(t, p)
			if r.DeliveredPackets < 100 {
				t.Fatalf("%s: only %d packets delivered; the trace pins too little", tc.name, r.DeliveredPackets)
			}
			got := hex.EncodeToString(h.Sum(nil))
			if got != want[tc.name] {
				t.Errorf("%s (engine_shards %d): trace digest %s, pinned %q", tc.name, shards, got, want[tc.name])
			}
			t.Logf("%s (engine_shards %d): %d packets delivered", tc.name, shards, r.DeliveredPackets)
		}
	}
}
