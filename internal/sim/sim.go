// Package sim provides the shared primitives of the wimc cycle-accurate
// simulator: identifier types, the deterministic random source, and
// fixed-point rate arithmetic used by bandwidth-limited links.
package sim

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"math/rand"
)

// SwitchID identifies a switch (router) in the network graph.
type SwitchID int32

// EndpointID identifies a traffic endpoint (a processor core or a DRAM
// channel) attached to a switch local port.
type EndpointID int32

// NoSwitch is the sentinel for "no switch".
const NoSwitch SwitchID = -1

// NoEndpoint is the sentinel for "no endpoint".
const NoEndpoint EndpointID = -1

// Cycle is a simulation time stamp measured in core clock cycles.
type Cycle = int64

// Never is the event-horizon sentinel: "this component has no future
// event scheduled". Horizon contributors return Never when, absent new
// stimulus, they will not act at any future cycle; min-folding Never with
// any real cycle leaves the real cycle.
const Never Cycle = 1<<63 - 1

// Rand is the deterministic random source used throughout a simulation.
// All randomness in a run derives from a single seed so that identical
// configurations replay identically.
//
// A Rand yields exactly the stream of
// rand.New(rand.NewSource(int64(seed))) from math/rand: each method of the
// same name returns the same value after the same draws. It is a concrete
// copy of that stream rather than a wrapper, so a draw is a direct call
// (Uint64 an inlined array read) instead of two interface calls, and a hot
// loop can draw through a Stream without any call. math/rand's source is the
// additive lagged Fibonacci generator x[n] = x[n-607] + x[n-273] (mod
// 2^64), so its first 607 outputs determine every later one: NewRand takes
// them from the math/rand source itself (no copy of its seed table), and
// refill advances the recurrence a block of 607 outputs at a time. Go keeps
// math/rand's seeded streams stable across releases; TestRandMatchesMathRand
// pins the copy against it.
type Rand struct {
	buf  [randLag]uint64 // the current block of outputs; buf[pos:] are next
	pos  int
	seed uint64
	// exp draws the rare ExpFloat64 through math/rand over this stream,
	// built on first use.
	exp *rand.Rand
}

// The lags of math/rand's generator.
const (
	randLag = 607
	randTap = 273
)

// NewRand returns a Rand seeded with seed.
func NewRand(seed uint64) *Rand {
	r := &Rand{seed: seed}
	src := rand.NewSource(int64(seed)).(rand.Source64)
	for i := range r.buf {
		r.buf[i] = src.Uint64()
	}
	return r
}

// refill replaces the block of the last 607 outputs with the next 607: in
// place, each new output adds the one 607 back (the old value in its slot)
// to the one 273 back (for the first 273 slots an old value further up the
// block, after that a new value already written). It stays out of line so
// that every inlined Uint64 carries a call, not the loops.
//
//go:noinline
func (r *Rand) refill() {
	b := &r.buf
	for i := 0; i < randTap; i++ {
		b[i] += b[i+randLag-randTap]
	}
	for i := randTap; i < randLag; i++ {
		b[i] += b[i-randTap]
	}
	r.pos = 0
}

// Uint64 returns a pseudo-random 64-bit value.
func (r *Rand) Uint64() uint64 {
	if r.pos >= randLag {
		r.refill()
	}
	v := r.buf[r.pos]
	r.pos++
	return v
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *Rand) Int63() int64 { return int64(r.Uint64() & (1<<63 - 1)) }

// Float64 returns a pseudo-random number in [0, 1). Like math/rand it
// divides a 63-bit draw by 2^63 and redraws when that rounds to 1.
func (r *Rand) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// int63n is math/rand's Int63n for n > 0.
func (r *Rand) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Intn returns a pseudo-random number in [0, n). It panics if n <= 0.
// Like math/rand it draws through Int31n (Below) when n < 2^31 and through
// Int63n otherwise.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return r.Below(NewBound(n))
	}
	return int(r.int63n(int64(n)))
}

// ExpFloat64 returns an exponentially distributed number with rate 1,
// drawn by math/rand's ziggurat from this stream.
func (r *Rand) ExpFloat64() float64 {
	if r.exp == nil {
		r.exp = rand.New(randSource{r})
	}
	return r.exp.ExpFloat64()
}

// randSource lets math/rand draw from a Rand's stream.
type randSource struct{ r *Rand }

func (s randSource) Int63() int64   { return s.r.Int63() }
func (s randSource) Uint64() uint64 { return s.r.Uint64() }
func (s randSource) Seed(int64)     { panic("sim: a Rand cannot be reseeded") }

// float1At is the smallest 63-bit draw that Float64 would turn into 1 (and
// redraw): float64 spaces values 2^10 apart just below 2^63, so every draw
// within 2^9 of it rounds up.
const float1At = 1<<63 - 1<<9

// Threshold is a probability p in integer form: Chance(t) makes the draws
// Float64() < p makes and returns the same answer without the conversion.
type Threshold uint64

// NewThreshold returns the Threshold of p: the smallest 63-bit draw whose
// Float64 value is at least p, found by binary search on the monotone
// conversion. Every p <= 0 (and NaN) maps to 0, never hit, and every p > 1
// to 2^63, always hit.
func NewThreshold(p float64) Threshold {
	if !(p > 0) {
		return 0
	}
	lo, hi := uint64(0), uint64(1<<63)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(int64(mid))/(1<<63) >= p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return Threshold(lo)
}

// Chance reports Float64() < p for t = NewThreshold(p), making the same
// draws.
func (r *Rand) Chance(t Threshold) bool {
	v := r.Uint64() & (1<<63 - 1)
	for v >= float1At {
		v = r.Uint64() & (1<<63 - 1)
	}
	return v < uint64(t)
}

// Bound is a range size n in [1, 2^31) in precomputed form for Below,
// which draws as math/rand's Int31n(n) does — 31 bits, redrawn above the
// same rejection bound — and takes the remainder by multiply-shift.
type Bound struct {
	n   uint64
	max uint32 // Int31n's rejection bound: larger draws are redrawn
	m   uint64 // ceil(2^64/n): v%n is the high word of (m*v mod 2^64)*n
}

// NewBound precomputes n. It panics unless 0 < n < 2^31.
func NewBound(n int) Bound {
	if n <= 0 || n > 1<<31-1 {
		panic(fmt.Sprintf("sim: bound %d outside [1, 2^31)", n))
	}
	return Bound{
		n:   uint64(n),
		max: uint32(1<<31 - 1 - (1<<31)%uint32(n)),
		m:   ^uint64(0)/uint64(n) + 1,
	}
}

// Below returns a pseudo-random number in [0, n) for b = NewBound(n): the
// value and the draws of math/rand's Int31n(n).
func (r *Rand) Below(b Bound) int {
	v := uint32(r.Uint64()>>32) & (1<<31 - 1)
	for v > b.max {
		v = uint32(r.Uint64()>>32) & (1<<31 - 1)
	}
	hi, _ := bits.Mul64(b.m*uint64(v), b.n)
	return int(hi)
}

// RedrawAt returns the smallest 63-bit draw (an output's low 63 bits, the
// bits Chance compares and Below takes its 31 from) at which Chance, or
// Below of one of bs, rejects the output and redraws. An output whose
// draw lies below it is one accepted draw for each of them, so a loop
// that only needs to advance past a run of such outputs can count them
// instead of drawing.
func RedrawAt(bs ...Bound) uint64 {
	at := uint64(float1At)
	for _, b := range bs {
		// Below redraws when the draw's top 31 bits exceed b.max.
		at = min(at, (uint64(b.max)+1)<<32)
	}
	return at
}

// Stream is the unread rest of a Rand's current block: a read position
// that a loop making many draws holds in a local variable, where it can
// stay in registers. Rand's own methods keep the position in the Rand and
// must refill the block when it runs out, which keeps them from inlining;
// Stream's draw methods never refill, so they inline. Each makes the draw
// the Rand method of the same name makes, from the next output, and
// returns the rest of the stream — or reports ok false, consuming nothing,
// when it cannot decide from what it holds: the stream is empty, or its
// next output is one the Rand method would reject and redraw. The caller
// then makes that one draw with ChanceFrom or BelowFrom, which run the
// Rand method. A loop takes the stream with Rand.Stream, always continues
// from the last stream returned, and hands it back with Rand.SetStream
// before anything else draws from the Rand.
type Stream []uint64

// Stream returns r's read position as a Stream.
func (r *Rand) Stream() Stream { return r.buf[r.pos:] }

// SetStream moves r's read position to s, the last stream returned by a
// draw that began from r.Stream.
func (r *Rand) SetStream(s Stream) { r.pos = randLag - len(s) }

// Chance is Rand.Chance from the stream.
func (s Stream) Chance(t Threshold) (hit bool, rest Stream, ok bool) {
	if len(s) == 0 || s[0]&(1<<63-1) >= float1At {
		return false, s, false
	}
	return s[0]&(1<<63-1) < uint64(t), s[1:], true
}

// Below is Rand.Below from the stream.
func (s Stream) Below(b Bound) (v int, rest Stream, ok bool) {
	if len(s) == 0 {
		return 0, s, false
	}
	w := uint32(s[0]>>32) & (1<<31 - 1)
	if w > b.max {
		return 0, s, false
	}
	hi, _ := bits.Mul64(b.m*uint64(w), b.n)
	return int(hi), s[1:], true
}

// ChanceFrom makes the Chance draw that s could not: it runs Rand.Chance
// from s and returns the result and the stream after it.
func (r *Rand) ChanceFrom(s Stream, t Threshold) (bool, Stream) {
	r.SetStream(s)
	hit := r.Chance(t)
	return hit, r.Stream()
}

// BelowFrom makes the Below draw that s could not: it runs Rand.Below from
// s and returns the result and the stream after it.
func (r *Rand) BelowFrom(s Stream, b Bound) (int, Stream) {
	r.SetStream(s)
	v := r.Below(b)
	return v, r.Stream()
}

// Seed returns the seed this source was created with.
func (r *Rand) Seed() uint64 { return r.seed }

// Derive returns an independent Rand whose seed is a stable hash of this
// source's seed and name. Use it to give subsystems (traffic, placement,
// arbitration salt) decoupled but reproducible streams.
func (r *Rand) Derive(name string) *Rand {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(r.seed >> (8 * i))
	}
	_, _ = h.Write(b[:])
	_, _ = h.Write([]byte(name))
	return NewRand(h.Sum64())
}

// rateScale is the fixed-point denominator for link-rate token buckets.
const rateScale = 1 << 20

// Rate is a link bandwidth expressed in flits per cycle as a fixed-point
// fraction. A Rate of RateOne transfers one flit every cycle.
type Rate int64

// RateOne is the full port rate: one flit per cycle.
const RateOne Rate = rateScale

// RateFromFlitsPerCycle converts a flits-per-cycle fraction to a Rate,
// capped at RateOne (a port is one flit wide).
func RateFromFlitsPerCycle(f float64) Rate {
	if f <= 0 {
		return 0
	}
	r := Rate(f * rateScale)
	if r > RateOne {
		r = RateOne
	}
	if r == 0 {
		r = 1 // never fully starve a configured link
	}
	return r
}

// RateFromGbps converts a raw data rate to flits per cycle given the flit
// width in bits and the core clock in GHz.
func RateFromGbps(gbps float64, flitBits int, clockGHz float64) Rate {
	if flitBits <= 0 || clockGHz <= 0 {
		return 0
	}
	return RateFromFlitsPerCycle(gbps / (float64(flitBits) * clockGHz))
}

// TokenBucket meters a bandwidth-limited resource. Refills are lazy: the
// bucket remembers the last cycle whose refill it has applied and tops up
// the exact owed amount on the next access, so an idle resource costs
// nothing per cycle. Accumulation is capped at two flits so idle links do
// not bank unbounded bursts. Because rates are fixed-point integers and the
// cap only ever clips from above, n lazy refills are bit-identical to n
// eager per-cycle refills.
type TokenBucket struct {
	rate   Rate
	tokens Rate
	// last is the most recent cycle whose refill has been applied; -1 means
	// no refill has been applied yet.
	last Cycle
}

// NewTokenBucket returns a bucket with the given rate, starting full so the
// first flit is never artificially delayed.
func NewTokenBucket(rate Rate) TokenBucket {
	return TokenBucket{rate: rate, tokens: RateOne, last: -1}
}

// refillTo applies the refills for every cycle in (b.last, now].
func (b *TokenBucket) refillTo(now Cycle) {
	if now <= b.last {
		return
	}
	elapsed := now - b.last
	b.last = now
	// Saturating add: elapsed*rate can exceed the cap by a wide margin.
	if b.rate > 0 && elapsed > Cycle(2*RateOne/b.rate)+1 {
		b.tokens = 2 * RateOne
		return
	}
	b.tokens += Rate(elapsed) * b.rate
	if b.tokens > 2*RateOne {
		b.tokens = 2 * RateOne
	}
}

// CanSpendAt reports whether a full flit of tokens is available at cycle
// now, applying any refills owed first.
func (b *TokenBucket) CanSpendAt(now Cycle) bool {
	b.refillTo(now)
	return b.tokens >= RateOne
}

// TrySpendAt consumes one flit of tokens at cycle now, reporting whether it
// succeeded.
func (b *TokenBucket) TrySpendAt(now Cycle) bool {
	if !b.CanSpendAt(now) {
		return false
	}
	b.tokens -= RateOne
	return true
}

// NextSpend returns the first cycle, no earlier than the last one refilled,
// at which CanSpendAt holds, or Never for a bucket that cannot refill.
// Tokens only grow between spends, so CanSpendAt(now) equals
// now >= NextSpend() until the bucket's next spend: a bucket's only spender
// can cache the answer and test admission with one compare. The cap never
// matters here, because it clips at two flits and a spend needs one.
func (b *TokenBucket) NextSpend() Cycle {
	if b.tokens >= RateOne {
		return b.last
	}
	if b.rate <= 0 {
		return Never
	}
	return b.last + Cycle((RateOne-b.tokens+b.rate-1)/b.rate)
}

// Rate returns the configured refill rate.
func (b *TokenBucket) Rate() Rate { return b.rate }

// ActiveSet is a bitmap over component indices used by the engine's
// active-set scheduler: a component is active while ticking it could do
// work, and the cycle loop visits only active members. Iteration is always
// in ascending index order, which makes an active-set sweep a strict
// subsequence of the full slice sweep — the property that keeps active-set
// scheduling cycle-identical to ticking everything (skipped components are
// provably no-ops, and visited ones run in the same order, so even
// floating-point accumulation is unchanged).
//
// A second bitmap holds parked members: components that hold work but
// cannot act until some event (a flit or a credit) reaches them. Park moves
// a member out of the iterated set; Add — the event's wake-up — makes it
// active again; Remove drops it from both. A set is Empty only when it has
// neither active nor parked members, so a parked component still counts
// as pending work.
//
// All methods are nil-safe no-ops on a nil receiver so components built
// outside an engine (unit tests, harnesses) need no activity wiring.
type ActiveSet struct {
	words  []uint64
	parked []uint64
}

// NewActiveSet returns a set able to hold indices [0, n).
func NewActiveSet(n int) *ActiveSet {
	w := (n + 63) / 64
	return &ActiveSet{words: make([]uint64, w), parked: make([]uint64, w)}
}

// Add marks index i active, waking it if it was parked (idempotent).
func (s *ActiveSet) Add(i int) {
	if s == nil {
		return
	}
	bit := uint64(1) << (uint(i) & 63)
	s.words[i>>6] |= bit
	s.parked[i>>6] &^= bit
}

// Park moves index i from the active bitmap to the parked one: it stays a
// member but iteration no longer visits it (idempotent).
func (s *ActiveSet) Park(i int) {
	if s == nil {
		return
	}
	bit := uint64(1) << (uint(i) & 63)
	s.words[i>>6] &^= bit
	s.parked[i>>6] |= bit
}

// Remove drops index i from the set, active or parked (idempotent).
func (s *ActiveSet) Remove(i int) {
	if s == nil {
		return
	}
	bit := uint64(1) << (uint(i) & 63)
	s.words[i>>6] &^= bit
	s.parked[i>>6] &^= bit
}

// Contains reports whether index i is active.
func (s *ActiveSet) Contains(i int) bool {
	if s == nil {
		return false
	}
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Parked reports whether index i is parked.
func (s *ActiveSet) Parked(i int) bool {
	if s == nil {
		return false
	}
	return s.parked[i>>6]&(1<<(uint(i)&63)) != 0
}

// Empty reports whether the set has no member, active or parked. It is
// O(words) with no popcount, so the engine's quiescence probe can run
// every cycle.
func (s *ActiveSet) Empty() bool {
	if s == nil {
		return true
	}
	for i, w := range s.words {
		if w|s.parked[i] != 0 {
			return false
		}
	}
	return true
}

// Len returns the number of active indices (parked ones excluded).
func (s *ActiveSet) Len() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Iter returns an allocation-free iterator over the active indices in
// ascending order; parked members are not visited. Each word is
// snapshotted as the iterator reaches it: removing or parking the current
// or any already-visited index during iteration is safe; indices added
// during iteration may or may not be visited in the same pass. A nil set
// yields an empty iterator.
func (s *ActiveSet) Iter() ActiveIter {
	if s == nil {
		return ActiveIter{}
	}
	return ActiveIter{words: s.words}
}

// ActiveIter iterates an ActiveSet without allocating (value type, no
// closures). Use:
//
//	for it := set.Iter(); ; {
//		i, ok := it.Next()
//		if !ok {
//			break
//		}
//		...
//	}
type ActiveIter struct {
	words []uint64
	wi    int    // next word index to snapshot
	w     uint64 // remaining bits of word wi-1
}

// Next returns the next active index, or ok=false when exhausted.
func (it *ActiveIter) Next() (int, bool) {
	for {
		if it.w != 0 {
			b := bits.TrailingZeros64(it.w)
			it.w &^= 1 << uint(b)
			return (it.wi-1)<<6 + b, true
		}
		if it.wi >= len(it.words) {
			return 0, false
		}
		it.w = it.words[it.wi]
		it.wi++
	}
}
