package sim

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Int63() != b.Int63() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRandDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestRandDeriveIndependentStreams(t *testing.T) {
	root := NewRand(7)
	a := root.Derive("traffic")
	b := root.Derive("wireless")
	c := NewRand(7).Derive("traffic")
	if a.Seed() == b.Seed() {
		t.Fatal("derived streams share a seed")
	}
	if a.Seed() != c.Seed() {
		t.Fatal("derivation is not stable across equal roots")
	}
	if a.Seed() == root.Seed() {
		t.Fatal("derived stream equals root seed")
	}
}

func TestRateFromGbps(t *testing.T) {
	tests := []struct {
		name  string
		gbps  float64
		bits  int
		clock float64
		want  float64 // flits per cycle
	}{
		{"full port", 80, 32, 2.5, 1.0},
		{"serial 15G", 15, 32, 2.5, 0.1875},
		{"interposer 12G", 12, 32, 2.5, 0.15},
		{"wireless 16G", 16, 32, 2.5, 0.2},
		{"over port rate caps", 128, 32, 2.5, 1.0},
		{"zero", 0, 32, 2.5, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := RateFromGbps(tc.gbps, tc.bits, tc.clock).FlitsPerCycle()
			if math.Abs(got-tc.want) > 1e-4 {
				t.Fatalf("RateFromGbps(%v) = %v flits/cycle, want %v", tc.gbps, got, tc.want)
			}
		})
	}
}

func TestRateInvalidInputs(t *testing.T) {
	if r := RateFromGbps(10, 0, 2.5); r != 0 {
		t.Fatalf("zero flit bits: got %v, want 0", r)
	}
	if r := RateFromGbps(10, 32, 0); r != 0 {
		t.Fatalf("zero clock: got %v, want 0", r)
	}
	if r := RateFromFlitsPerCycle(-1); r != 0 {
		t.Fatalf("negative rate: got %v, want 0", r)
	}
}

func TestRateTinyNeverZero(t *testing.T) {
	// A configured link must never be fully starved by rounding.
	if r := RateFromFlitsPerCycle(1e-12); r == 0 {
		t.Fatal("tiny positive rate rounded to zero")
	}
}

func TestTokenBucketFullRate(t *testing.T) {
	b := NewTokenBucket(RateOne)
	sent := 0
	for i := 0; i < 100; i++ {
		if b.TrySpendAt(Cycle(i)) {
			sent++
		}
	}
	if sent != 100 {
		t.Fatalf("full-rate bucket sent %d/100", sent)
	}
}

func TestTokenBucketFractionalRate(t *testing.T) {
	// 0.1875 flits/cycle (the 15 Gbps serial link): over N cycles at most
	// ceil(N*0.1875)+1 transfers, and at least floor(N*0.1875).
	b := NewTokenBucket(RateFromFlitsPerCycle(0.1875))
	const n = 1600
	sent := 0
	for i := 0; i < n; i++ {
		if b.TrySpendAt(Cycle(i)) {
			sent++
		}
	}
	want := int(0.1875 * n)
	if sent < want-1 || sent > want+2 {
		t.Fatalf("fractional bucket sent %d over %d cycles, want ≈%d", sent, n, want)
	}
}

func TestTokenBucketBurstBound(t *testing.T) {
	// Idle accumulation must not bank more than ~2 flits of burst.
	b := NewTokenBucket(RateFromFlitsPerCycle(0.5))
	burst := 0
	for b.TrySpendAt(1000) {
		burst++
	}
	if burst > 2 {
		t.Fatalf("idle bucket banked a burst of %d flits", burst)
	}
}

func TestTokenBucketNeverExceedsRate(t *testing.T) {
	// Property: for random fractional rates, long-run throughput never
	// exceeds the configured rate by more than the burst allowance.
	check := func(rate16 uint16, n16 uint16) bool {
		rate := float64(rate16%1000+1) / 1000.0 // (0,1]
		n := int(n16%2000) + 100
		b := NewTokenBucket(RateFromFlitsPerCycle(rate))
		sent := 0
		for i := 0; i < n; i++ {
			if b.TrySpendAt(Cycle(i)) {
				sent++
			}
		}
		return float64(sent) <= rate*float64(n)+2
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTokenBucketNextSpend checks NextSpend against stepping CanSpendAt
// cycle by cycle: after every spend of a random schedule, a copy of the
// bucket refuses each cycle from the last refill up to NextSpend and
// accepts at it. The schedule spends as soon as the bucket allows, after
// short waits, and after idles long enough to saturate the refill (which
// banks two flits, so a second spend in the same cycle follows).
func TestTokenBucketNextSpend(t *testing.T) {
	cases := []struct {
		name   string
		rate   Rate
		spends int
	}{
		{"one", RateOne, 300},
		{"12gbps", RateFromGbps(12, 32, 2.5), 300}, // 0.15 flits per cycle
		{"third", RateFromFlitsPerCycle(1.0 / 3), 300},
		{"min", 1, 6}, // 2^20 cycles per flit
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := NewRand(uint64(tc.rate))
			b := NewTokenBucket(tc.rate)
			saturate := Cycle(2*RateOne/tc.rate) + 2
			idles := 0
			for i := 0; i < tc.spends; i++ {
				next := b.NextSpend()
				ref := b
				for c := b.last; c < next; c++ {
					if ref.CanSpendAt(c) {
						t.Fatalf("spend %d: bucket can spend at %d, before NextSpend %d", i, c, next)
					}
				}
				if !ref.CanSpendAt(next) {
					t.Fatalf("spend %d: bucket cannot spend at NextSpend %d", i, next)
				}
				at := next
				switch k := rng.Intn(10); {
				case k == 0 || i == 1:
					at += saturate + Cycle(rng.Intn(5))
					idles++
				case k < 4:
					at += Cycle(rng.Intn(6))
				}
				if !b.TrySpendAt(at) {
					t.Fatalf("spend %d: TrySpendAt(%d) refused at or after NextSpend %d", i, at, next)
				}
			}
			if idles == 0 {
				t.Fatal("schedule never idled long enough to saturate the refill")
			}
		})
	}
	t.Run("zero-rate", func(t *testing.T) {
		b := NewTokenBucket(0)
		if !b.TrySpendAt(0) {
			t.Fatal("fresh zero-rate bucket refused its first flit")
		}
		if got := b.NextSpend(); got != Never {
			t.Fatalf("drained zero-rate bucket NextSpend = %d, want Never", got)
		}
	})
}

// TestTokenBucketLazyMatchesEager proves the lazy refill is bit-identical
// to eager per-cycle refills: a bucket probed every cycle and one probed
// only at sparse cycles agree at every probe point.
func TestTokenBucketLazyMatchesEager(t *testing.T) {
	check := func(rate16 uint16, gaps []uint8) bool {
		rate := RateFromFlitsPerCycle(float64(rate16%1000+1) / 1000.0)
		eager := NewTokenBucket(rate)
		lazy := NewTokenBucket(rate)
		now := Cycle(0)
		for _, g := range gaps {
			now += Cycle(g%97) + 1
			// Advance the eager twin one cycle at a time.
			for eager.last < now {
				eager.refillTo(eager.last + 1)
			}
			if eager.CanSpendAt(now) != lazy.CanSpendAt(now) {
				return false
			}
			if eager.tokens != lazy.tokens {
				return false
			}
			if eager.TrySpendAt(now) != lazy.TrySpendAt(now) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestActiveSetBasics(t *testing.T) {
	s := NewActiveSet(130)
	for _, i := range []int{0, 63, 64, 129, 64} {
		s.Add(i)
	}
	if s.Len() != 4 {
		t.Fatalf("len %d after adds, want 4", s.Len())
	}
	if !s.Contains(63) || s.Contains(62) {
		t.Fatal("membership wrong")
	}
	var got []int
	for it := s.Iter(); ; {
		i, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, i)
	}
	want := []int{0, 63, 64, 129}
	if len(got) != len(want) {
		t.Fatalf("iterated %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iteration order %v, want ascending %v", got, want)
		}
	}
	s.Remove(64)
	if s.Contains(64) || s.Len() != 3 {
		t.Fatal("remove failed")
	}
}

func TestActiveSetRemoveDuringIteration(t *testing.T) {
	s := NewActiveSet(256)
	for i := 0; i < 256; i += 3 {
		s.Add(i)
	}
	var visited []int
	for it := s.Iter(); ; {
		i, ok := it.Next()
		if !ok {
			break
		}
		visited = append(visited, i)
		s.Remove(i) // removing the current index must not disturb iteration
	}
	if len(visited) != 86 || s.Len() != 0 {
		t.Fatalf("visited %d, remaining %d", len(visited), s.Len())
	}
}

// TestActiveSetParkWake pins the parked bitmap: a parked member leaves
// iteration but keeps the set non-empty, Add wakes it back into ascending
// iteration, and Remove clears it whether active or parked.
func TestActiveSetParkWake(t *testing.T) {
	s := NewActiveSet(200)
	for _, i := range []int{3, 64, 70, 199} {
		s.Add(i)
	}
	iterate := func() []int {
		var got []int
		for it := s.Iter(); ; {
			i, ok := it.Next()
			if !ok {
				return got
			}
			got = append(got, i)
		}
	}
	s.Park(64)
	s.Park(199)
	s.Park(199) // idempotent
	if s.Contains(64) || !s.Parked(64) || s.Parked(3) || s.Len() != 2 {
		t.Fatalf("after park: active(64)=%v parked(64)=%v parked(3)=%v len=%d",
			s.Contains(64), s.Parked(64), s.Parked(3), s.Len())
	}
	if got := iterate(); !slices.Equal(got, []int{3, 70}) {
		t.Fatalf("iteration visited %v, want the active members [3 70] only", got)
	}

	s.Add(64) // wake
	if !s.Contains(64) || s.Parked(64) {
		t.Fatal("Add did not wake a parked member")
	}
	if got := iterate(); !slices.Equal(got, []int{3, 64, 70}) {
		t.Fatalf("iteration after wake visited %v, want [3 64 70]", got)
	}

	// Parking the current member during iteration is as safe as removing it.
	for it := s.Iter(); ; {
		i, ok := it.Next()
		if !ok {
			break
		}
		s.Park(i)
	}
	if s.Len() != 0 || s.Empty() {
		t.Fatalf("every member parked: len %d, empty %v; want 0 active and a non-empty set", s.Len(), s.Empty())
	}
	for _, i := range []int{3, 64, 70, 199} {
		s.Remove(i)
		if s.Parked(i) || s.Contains(i) {
			t.Fatalf("Remove left %d parked=%v active=%v", i, s.Parked(i), s.Contains(i))
		}
	}
	if !s.Empty() {
		t.Fatal("set not empty after removing every parked member")
	}
}

func TestActiveSetNilSafe(t *testing.T) {
	var s *ActiveSet
	s.Add(5)
	s.Park(5)
	s.Remove(5)
	if s.Contains(5) || s.Parked(5) || s.Len() != 0 || !s.Empty() {
		t.Fatal("nil set must behave as empty")
	}
	it := s.Iter()
	if _, ok := it.Next(); ok {
		t.Fatal("nil set iterated")
	}
}
