// Package pool provides the bounded, deterministic parallel-for that
// store.RunPoints runs a batch's engine runs on and internal/route fans
// its per-destination table fills and deadlock walks across. It imports
// only the standard library, so packages below the engine can share it
// without an import cycle.
//
// # Determinism contract
//
// ForEach indices are claimed in ascending order by an atomic counter and
// the work function writes only into caller-owned, per-index state, so the
// observable outcome is independent of the worker count: ForEach(1, n, fn)
// and ForEach(w, n, fn) leave identical state behind on success.
//
// # Fail-fast
//
// The first error sets an atomic failed flag; workers check it before
// claiming another index and stop, so a bad batch aborts in roughly one
// in-flight round instead of running every queued entry to completion. The
// error reported is still exactly the one a sequential loop would have hit
// first: indices are claimed in ascending order, so when index i fails,
// every j < i was claimed earlier and its outcome is recorded before
// ForEach returns — the lowest failing index is always among them.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(0..n-1) on a bounded worker pool and returns the
// lowest-index error, or nil. workers <= 0 means
// runtime.GOMAXPROCS(0); workers == 1 reproduces a plain sequential loop
// (no goroutines at all). On error, indices greater than the failing one
// may or may not have run; a sequential caller must not depend on them.
func ForEach(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	// Report the lowest-index failure, exactly as a sequential loop would.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
