// Package store persists simulation Results in a content-addressed
// on-disk cache keyed by spec.PointKey — a hash of (config, traffic,
// engine version) — and executes spec batches through it: RunPoints /
// RunSpec serve every already-computed point from disk and run only the
// misses on the internal/exp/pool worker pool, storing each Result as it
// lands. RunPoints is the batch runner of every grid of simulations:
// wimc.Sweep, RunSeeds and CompareAtSaturation (with a nil store), the
// figure generators, wimcbench -spec and wimcd all run through it.
//
// The cache makes experiment re-execution incremental: re-running a sweep
// after a config tweak recomputes only the points the tweak touched, and
// re-running it after an engine change recomputes everything (keys embed
// engine.Version, so a behavior-changing build can never serve stale
// bytes). A warm re-run of an identical spec performs zero engine runs
// (Stats.Misses == 0) — the wimcd CI smoke and the store round-trip test
// both assert exactly that.
//
// Results served from the cache are byte-identical to recomputation:
// engine.Result is plain data whose JSON round-trips losslessly, and the
// key covers every input that can influence it. Every batch entry is a
// spec.Point, whose engine parameters are exactly its (config, traffic)
// pair — no trace writer and no reference scheduling path — so every
// entry is cacheable. RunPoints computes each key from the point's
// Config and Traffic itself instead of trusting Point.Key.
//
// # Determinism contract
//
// The simulator is strictly deterministic: a run's entire random stream
// derives from its Config (Config.Seed), never from wall-clock time or
// goroutine scheduling, and one engine shares no mutable state with
// another. RunPoints keeps that property across parallel execution:
//
//   - Results are returned in input order: results[i] is the outcome of
//     pts[i], no matter which worker ran it or when it finished.
//   - The error returned is that of the lowest-index failing point, the
//     one a sequential loop would have reported first. Misses are claimed
//     in ascending index order and a failure stops further claims
//     (fail-fast), so points after a failure may or may not run, but the
//     reported failure never changes.
//   - The output is byte-identical at every worker count: RunPoints(st,
//     1, pts, obs) and RunPoints(st, n, pts, obs) return the same Results,
//     and regenerating a figure is reproducible bit for bit regardless of
//     GOMAXPROCS.
//
// The Observer is the one exception to input order: it fires as each
// miss lands, concurrently and in no particular order.
//
// Layout: <dir>/objects/<key[:2]>/<key>.json, one Result per file,
// written atomically (temp + rename), safe for concurrent writers.
//
// Package store is under the determinism lint contract (detorder /
// noclock; see internal/lint): key enumeration is sorted, nothing reads
// clocks or environment.
package store
