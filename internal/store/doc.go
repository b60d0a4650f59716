// Package store persists simulation Results in a content-addressed
// on-disk cache keyed by spec.PointKey — a hash of (config, traffic,
// engine version) — and executes spec batches through it: RunPoints /
// RunSpec serve every already-computed point from disk and run only the
// misses on the internal/exp pool, storing each Result as it lands.
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
// Layout: <dir>/objects/<key[:2]>/<key>.json, one Result per file,
// written atomically (temp + rename), safe for concurrent writers.
//
// Package store is under the determinism lint contract (detorder /
// noclock; see internal/lint): key enumeration is sorted, nothing reads
// clocks or environment.
package store
