package pool

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8} {
		n := 100
		counts := make([]atomic.Int32, n)
		err := ForEach(workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: err=%v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatalf("empty batch: err=%v", err)
	}
}

// TestForEachLowestIndexError: even when a higher index fails first in wall
// time, the reported error is the lowest failing index's own error value —
// identical to a sequential loop.
func TestForEachLowestIndexError(t *testing.T) {
	n := 16
	fail := map[int]error{}
	for _, i := range []int{3, 5, 12} {
		fail[i] = fmt.Errorf("boom %d", i)
	}
	for _, workers := range []int{1, 4} {
		err := ForEach(workers, n, func(i int) error {
			if i == 3 {
				time.Sleep(2 * time.Millisecond) // let index 5 fail first
			}
			return fail[i]
		})
		if err != fail[3] {
			t.Fatalf("workers=%d: err=%v, want index 3's error %v", workers, err, fail[3])
		}
	}
}

// TestForEachSequentialFailFast: with one worker, nothing after the failing
// index runs at all.
func TestForEachSequentialFailFast(t *testing.T) {
	stop := errors.New("stop")
	var ran atomic.Int32
	err := ForEach(1, 50, func(i int) error {
		ran.Add(1)
		if i == 7 {
			return stop
		}
		return nil
	})
	if err != stop {
		t.Fatalf("err=%v, want %v", err, stop)
	}
	if got := ran.Load(); got != 8 {
		t.Fatalf("sequential loop ran %d entries, want 8 (0..7)", got)
	}
}

// TestForEachParallelFailFast: an immediate failure stops workers from
// claiming the rest of a long queue. The bound is deliberately loose (each
// worker may have claimed one more entry before observing the flag, and the
// remaining entries take ~1ms each), but a runner without the failed flag
// would execute all 256 entries.
func TestForEachParallelFailFast(t *testing.T) {
	const n = 256
	const workers = 4
	bad := errors.New("bad config")
	var ran atomic.Int32
	err := ForEach(workers, n, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return bad
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != bad {
		t.Fatalf("err=%v, want %v", err, bad)
	}
	if got := ran.Load(); got > 4*workers {
		t.Fatalf("fail-fast executed %d of %d entries, want <= %d", got, n, 4*workers)
	}
}
