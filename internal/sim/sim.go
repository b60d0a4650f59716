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
type Rand struct {
	*rand.Rand
	seed uint64
}

// NewRand returns a Rand seeded with seed.
func NewRand(seed uint64) *Rand {
	return &Rand{Rand: rand.New(rand.NewSource(int64(seed))), seed: seed}
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

// FlitsPerCycle reports the rate as a float for display.
func (r Rate) FlitsPerCycle() float64 { return float64(r) / rateScale }

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

// Rate returns the configured refill rate.
func (b *TokenBucket) Rate() Rate { return b.rate }

// Validatef returns a formatted validation error.
func Validatef(format string, args ...any) error {
	return fmt.Errorf("wimc: invalid configuration: "+format, args...)
}

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
