package sim

import (
	"math"
	"math/rand"
	"testing"
)

// randTestSeeds are the seeds the stream tests compare: the edge cases of
// math/rand's seeding (0 maps to 89482311, seeds reduce modulo 2^31-1, and
// 2^63+5 is negative as an int64) plus a few drawn at random.
func randTestSeeds() []uint64 {
	seeds := []uint64{0, 1, 89482311, 1<<31 - 1, 1<<63 + 5}
	meta := rand.New(rand.NewSource(20171023))
	for i := 0; i < 3; i++ {
		seeds = append(seeds, meta.Uint64())
	}
	return seeds
}

// randTestNs are the range sizes the bounded draws are checked at: the
// power-of-two and rejection paths of Int31n, a bound rejecting about half
// of all draws (2^30+1), the largest Int31n bound, and two that Intn sends
// through Int63n.
var randTestNs = []int{1, 2, 3, 64, 1023, 1024, 1<<30 + 1, 1<<31 - 1, 1 << 31, 1<<40 + 3}

// TestRandMatchesMathRand interleaves every draw the simulator makes — and
// the precomputed Chance and Below — for a million draws per seed, across
// well over a thousand refills, and requires each to equal what
// rand.New(rand.NewSource(int64(seed))) returns for the same call.
func TestRandMatchesMathRand(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 100_000
	}
	probs := []float64{0, 1e-12, 0.0002, 0.2, 0.5, 1 - 0x1p-53, 1}
	thresholds := make([]Threshold, len(probs))
	for i, p := range probs {
		thresholds[i] = NewThreshold(p)
	}
	var bounds []Bound
	for _, n := range randTestNs {
		if n < 1<<31 {
			bounds = append(bounds, NewBound(n))
		}
	}
	for _, seed := range randTestSeeds() {
		got := NewRand(seed)
		want := rand.New(rand.NewSource(int64(seed)))
		op := rand.New(rand.NewSource(int64(seed) ^ 0x5DEECE66D))
		for i := 0; i < draws; i++ {
			switch k := op.Intn(9); k {
			case 0:
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d draw %d: Float64 %v, math/rand %v", seed, i, g, w)
				}
			case 1:
				if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
					t.Fatalf("seed %d draw %d: ExpFloat64 %v, math/rand %v", seed, i, g, w)
				}
			case 2:
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 %#x, math/rand %#x", seed, i, g, w)
				}
			case 3:
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, i, g, w)
				}
			case 4, 5, 6:
				n := randTestNs[op.Intn(len(randTestNs))]
				if g, w := got.Intn(n), want.Intn(n); g != w {
					t.Fatalf("seed %d draw %d: Intn(%d) %d, math/rand %d", seed, i, n, g, w)
				}
			case 7:
				j := op.Intn(len(bounds))
				if g, w := got.Below(bounds[j]), want.Intn(randTestNs[j]); g != w {
					t.Fatalf("seed %d draw %d: Below(%d) %d, math/rand Intn %d", seed, i, randTestNs[j], g, w)
				}
			case 8:
				j := op.Intn(len(probs))
				if g, w := got.Chance(thresholds[j]), want.Float64() < probs[j]; g != w {
					t.Fatalf("seed %d draw %d: Chance(%v) %v, math/rand %v", seed, i, probs[j], g, w)
				}
			}
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: stream position differs after %d draws", seed, draws)
		}
	}
}

// TestThresholdMatchesFloatCompare checks Chance's integer compare against
// Float64's conversion and compare for every 63-bit draw within 4096 of
// each threshold, and the boundary at which Float64 redraws.
func TestThresholdMatchesFloatCompare(t *testing.T) {
	for _, p := range []float64{0, 1e-12, 0.0002, 0.2, 0.5, 1 - 0x1p-53, 1} {
		th := uint64(NewThreshold(p))
		lo, hi := uint64(0), uint64(1<<63-1)
		if th > 4096 {
			lo = th - 4096
		}
		if th < hi-4096 {
			hi = th + 4096
		}
		for v := lo; v <= hi; v++ {
			if f := float64(int64(v)) / (1 << 63); (f < p) != (v < th) {
				t.Fatalf("p=%v: draw %d converts to %v, but the threshold is %d", p, v, f, th)
			}
		}
	}
	if f := float64(int64(float1At-1)) / (1 << 63); f >= 1 {
		t.Fatalf("draw float1At-1 converts to %v, want < 1", f)
	}
	if f := float64(int64(float1At)) / (1 << 63); f != 1 {
		t.Fatalf("draw float1At converts to %v, want 1", f)
	}
	if th := NewThreshold(1); uint64(th) != float1At {
		t.Fatalf("NewThreshold(1) = %d, want float1At %d", th, uint64(float1At))
	}
	for _, p := range []float64{-1, math.NaN()} {
		if th := NewThreshold(p); th != 0 {
			t.Fatalf("NewThreshold(%v) = %d, want 0", p, th)
		}
	}
	if th := NewThreshold(2); th != 1<<63 {
		t.Fatalf("NewThreshold(2) = %d, want 2^63", th)
	}
}

// TestChanceRedrawsAtOne plants draws that Float64 would round to 1 and
// checks that Chance skips exactly those, as Float64 does: the natural
// stream reaches one about once in 2^54 draws.
func TestChanceRedrawsAtOne(t *testing.T) {
	for _, planted := range []uint64{float1At, 1<<63 - 1, 1<<64 - 1} {
		a, b := NewRand(5), NewRand(5)
		for _, r := range []*Rand{a, b} {
			r.buf[r.pos] = planted
			r.buf[r.pos+1] = planted
		}
		half := NewThreshold(0.5)
		if g, w := a.Chance(half), b.Float64() < 0.5; g != w {
			t.Fatalf("planted %#x: Chance %v, Float64 compare %v", planted, g, w)
		}
		if a.pos != 3 || b.pos != 3 {
			t.Fatalf("planted %#x: positions %d and %d after one draw, want 3 (two redraws)", planted, a.pos, b.pos)
		}
	}
	// One below the boundary is a real draw, just under 1.
	r := NewRand(5)
	r.buf[0] = float1At - 1
	if !r.Chance(NewThreshold(1)) || r.pos != 1 {
		t.Fatalf("draw float1At-1 was redrawn or missed p=1")
	}
}

// TestNewBoundRange pins NewBound's domain: Below covers exactly the
// Int31n path of Intn.
func TestNewBoundRange(t *testing.T) {
	for _, n := range []int{0, -1, 1 << 31} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBound(%d) did not panic", n)
				}
			}()
			NewBound(n)
		}()
	}
}

// TestStreamMatchesRand draws through a Stream with the ok/From pattern
// and through the Rand methods side by side, interleaving Chance and
// Below (2^30+1 rejects about half of all draws, so the From fallbacks run
// for rejection as well as for the end of each block), and handing the
// stream back for a plain Rand draw now and then.
func TestStreamMatchesRand(t *testing.T) {
	probs := []float64{0, 0.0002, 0.2, 0.5, 1}
	var bounds []Bound
	for _, n := range randTestNs[:8] {
		bounds = append(bounds, NewBound(n))
	}
	for _, seed := range randTestSeeds() {
		a, b := NewRand(seed), NewRand(seed)
		op := rand.New(rand.NewSource(int64(seed) + 7))
		s := a.Stream()
		for i := 0; i < 200_000; i++ {
			switch k := op.Intn(21); {
			case k < 10:
				th := NewThreshold(probs[op.Intn(len(probs))])
				got, rest, ok := s.Chance(th)
				if !ok {
					got, rest = a.ChanceFrom(s, th)
				}
				s = rest
				if want := b.Chance(th); got != want {
					t.Fatalf("seed %d draw %d: stream Chance %v, Rand %v", seed, i, got, want)
				}
			case k < 20:
				j := op.Intn(len(bounds))
				got, rest, ok := s.Below(bounds[j])
				if !ok {
					got, rest = a.BelowFrom(s, bounds[j])
				}
				s = rest
				if want := b.Below(bounds[j]); got != want {
					t.Fatalf("seed %d draw %d: stream Below(%d) %d, Rand %d", seed, i, randTestNs[j], got, want)
				}
			default:
				a.SetStream(s)
				if g, w := a.Uint64(), b.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 after SetStream %#x, Rand %#x", seed, i, g, w)
				}
				s = a.Stream()
			}
		}
		a.SetStream(s)
		if g, w := a.Uint64(), b.Uint64(); g != w {
			t.Fatalf("seed %d: stream position differs at the end", seed)
		}
	}
}

// TestStreamDefersRedrawsAndEnds: a Stream reports ok false, consuming
// nothing, on an output Float64 would redraw and on an empty stream.
func TestStreamDefersRedrawsAndEnds(t *testing.T) {
	r := NewRand(9)
	r.buf[0] = float1At
	s := r.Stream()
	if _, rest, ok := s.Chance(NewThreshold(0.5)); ok || len(rest) != len(s) {
		t.Fatal("Chance decided on an output Float64 redraws")
	}
	if _, rest, ok := s[len(s):].Chance(NewThreshold(0.5)); ok || len(rest) != 0 {
		t.Fatal("Chance decided on an empty stream")
	}
	if _, _, ok := s[len(s):].Below(NewBound(3)); ok {
		t.Fatal("Below decided on an empty stream")
	}
	hit, rest := r.ChanceFrom(s, NewThreshold(1))
	if !hit || len(rest) != randLag-2 {
		t.Fatalf("ChanceFrom: hit %v, %d left; want true after skipping the redraw, %d left", hit, len(rest), randLag-2)
	}
}
