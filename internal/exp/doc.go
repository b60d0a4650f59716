// Package exp is the parallel experiment runner of the wimc simulator: it
// fans independent engine runs out across a bounded worker pool while
// keeping every observable output identical to a sequential loop. The pool
// itself lives in the internal/exp/pool subpackage so that a package below
// the engine (internal/route's per-destination table fills) shares the
// same primitive without an import cycle.
//
// # Determinism contract
//
// The simulator itself is strictly deterministic: a run's entire random
// stream derives from its Params (Config.Seed), never from wall-clock time
// or goroutine scheduling, and one engine never shares mutable state with
// another. The runner preserves that property across parallel execution:
//
//   - Results are returned in input order: results[i] is the outcome of
//     params[i], no matter which worker ran it or when it finished.
//   - The error returned is the error of the lowest-index failing run —
//     the same one a sequential loop would have reported first. Entries are
//     claimed in ascending index order and a failure stops further claims
//     (fail-fast), so runs after a failure may or may not execute, but
//     their outcomes are discarded and the reported failure never changes.
//   - Per-run seeds are fixed in the Params before any worker starts.
//
// Consequently RunIndexed(1, ps) and RunIndexed(n, ps) produce
// byte-identical results, and regenerating a figure through the runner is
// reproducible bit-for-bit regardless of GOMAXPROCS.
//
// Params with a non-nil Trace writer must not share that writer between
// runs executed concurrently; give each run its own writer (or run with
// workers = 1).
package exp
