package engine

import (
	"runtime"
	"testing"

	"wimc/internal/config"
)

// saturatedGenerator builds a 64-chip wireless package at rate 1.0, steps
// it past warm-up and then generates, without stepping, until every core's
// source queue is full: from there a generate call only draws.
func saturatedGenerator(tb testing.TB) *Engine {
	tb.Helper()
	cfg := config.MustXCYM(64, config.DefaultStacks(64), config.ArchWireless)
	e, err := New(Params{Cfg: cfg, Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 1.0, MemFraction: 0.2}})
	if err != nil {
		tb.Fatal(err)
	}
	for ; e.now < 600; e.now++ {
		e.step()
	}
	for i := 0; ; i++ {
		full := true
		for _, room := range e.room {
			full = full && !room
		}
		if full {
			return e
		}
		if i == e.cfg.InjectionQueue {
			tb.Fatalf("source queues still open after %d rate-1 generate calls", i)
		}
		e.generate(e.now)
	}
}

// TestGenerateAllocatesNothing: once every core queue is full, generate
// builds no packet and grows no buffer, so 500 calls make no heap
// allocation at all (counted exactly with MemStats.Mallocs).
func TestGenerateAllocatesNothing(t *testing.T) {
	e := saturatedGenerator(t)
	gen := e.genRefused
	const calls = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		e.generate(e.now)
	}
	runtime.ReadMemStats(&after)
	if m := after.Mallocs - before.Mallocs; m != 0 {
		t.Fatalf("%d heap allocations over %d generate calls with every queue full, want 0", m, calls)
	}
	if got := e.genRefused - gen; got < calls*int64(len(e.room))*9/10 {
		t.Fatalf("only %d packets generated and refused over %d rate-1 calls of %d cores", got, calls, len(e.room))
	}
}

// BenchmarkGenerate times one generate call: on the saturated 64-chip
// package with every queue full (only draws), and on a 16-chip package at
// the light load of the bench's lowload16_drain workload, where most
// cycles that step are generation.
func BenchmarkGenerate(b *testing.B) {
	b.Run("64C-rate1-full", func(b *testing.B) {
		e := saturatedGenerator(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.generate(e.now)
		}
	})
	b.Run("16C-rate0.0002", func(b *testing.B) {
		cfg := config.MustXCYM(16, 16, config.ArchWireless)
		e, err := New(Params{Cfg: cfg, Traffic: TrafficSpec{Kind: TrafficUniform, Rate: 0.0002, MemFraction: 0.2}})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.generate(e.now)
		}
	})
}
