package exp

import (
	"runtime"

	"wimc/internal/engine"
	"wimc/internal/exp/pool"
)

// RunIndexed executes every params entry and returns the results in input
// order, plus the input index the returned error belongs to (-1 when err
// is nil) so callers can attach run-specific context (the load, the seed,
// the configuration name). workers bounds the goroutine pool: <= 0 means
// runtime.GOMAXPROCS(0), 1 reproduces a plain sequential loop (no
// goroutines at all).
//
// A failing run fails the batch fast: workers stop claiming new entries as
// soon as any run errors (pool.ForEach's failed flag), instead of running
// every queued entry to completion. The reported error is still the
// lowest-index failure — the one a sequential loop would have hit first.
func RunIndexed(workers int, params []engine.Params) ([]*engine.Result, int, error) {
	return RunIndexedObserved(workers, params, nil)
}

// RunIndexedObserved is RunIndexed with a completion hook: observe(i, r)
// fires as each run finishes, from whichever worker goroutine ran it —
// concurrently and in no particular order, so the callback must be
// thread-safe. It exists for progress streaming (wimcd reports each sweep
// point the moment it lands); the returned slice is still complete and in
// input order, and observe never fires for a failed run. A nil observe is
// exactly RunIndexed.
func RunIndexedObserved(workers int, params []engine.Params, observe func(i int, r *engine.Result)) ([]*engine.Result, int, error) {
	if len(params) == 0 {
		return []*engine.Result{}, -1, nil
	}
	// Split the caller's worker budget (GOMAXPROCS when unbounded) between
	// the pool and each run's inner routing-table construction, so the
	// batch as a whole never exceeds the budget: a core-spanning pool
	// leaves construction sequential, while a pool narrower than the
	// budget (few or large runs) hands each run the leftover parallelism.
	// Results are unchanged in every case: the route tables are
	// worker-count invariant.
	budget := workers
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	outer := budget
	if outer > len(params) {
		outer = len(params)
	}
	innerBudget := budget / outer
	if innerBudget < 1 {
		innerBudget = 1
	}
	results := make([]*engine.Result, len(params))
	idx, err := pool.ForEach(workers, len(params), func(i int) error {
		p := params[i]
		if p.BuildWorkers <= 0 {
			p.BuildWorkers = innerBudget
		}
		r, err := engine.Run(p)
		results[i] = r
		if err == nil && observe != nil {
			observe(i, r)
		}
		return err
	})
	if err != nil {
		return nil, idx, err
	}
	return results, -1, nil
}
