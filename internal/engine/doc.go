// Package engine assembles a complete multichip system — topology, routing
// tables, switches, links, endpoints, the wireless fabric and a traffic
// source — and drives the cycle-accurate simulation loop.
//
// # Sharded execution
//
// There is one cycle loop, Engine.step, and it always runs over shards.
// The grid is partitioned into Config.EngineShards horizontal row bands;
// each shard owns the switches, links, NIs, and WIs whose switches fall in
// its band, plus the wireless sub-channels hosted by its switches, and
// keeps the activity sets that decide which of them tick. A serial engine
// (EngineShards 0 or 1) is the one-shard case: one shard owns everything,
// so there are no boundary links, nothing defers, nothing replays and no
// barrier goroutine starts — the two per-shard phases run inline. With
// more shards they run across worker goroutines, and the output stays
// byte-identical — the same Result JSON and the same packet trace at every
// shard count, pinned by the determinism matrix in determinism_test.go.
//
// Ownership is single-writer: a component's pipeline state is only mutated
// by its owning shard's goroutine, because a pipeline sweep writes only the
// swept switch, its attached WI/NI and the conduits of its output ports.
// Energy metering is atomic fixed-point (energy.FPScale), so concurrent
// sums are bit-identical in any order. The three cross-shard interactions
// are handled as follows:
//
//   - Boundary wired links (endpoints in different shards) run in mailbox
//     mode: the source shard retires flits into a parity ping-pong buffer
//     (written at cycle t, drained by the destination shard at t+1 — the
//     same cycle a plain Deliver would land them), and credits flow the
//     opposite way through a mirrored buffer. See noc.Link.SetMailbox.
//   - Wireless fabric side effects (transmit accounting, fault drops,
//     backlog bookkeeping) are deferred into per-shard operation logs
//     during the parallel sweep and replayed serially between phases,
//     stable-sorted by WI switch ID so the merge reproduces the one-shard
//     sweep order exactly. See core.ReplayShardOps.
//   - Endpoint-side events (delivery, route classification, watchdog
//     injection tracking) are logged per shard during the endpoint phase
//     and replayed stable-sorted by endpoint index — again the one-shard
//     sweep order.
//
// A cycle therefore runs serial–parallel–serial: faults, watchdog, and
// wireless launch first (serial); pipeline sweeps and link delivery per
// shard (parallel, barrier); fabric-op replay and wireless delivery
// (serial); endpoint ticks per shard (parallel, barrier); event replay,
// memory replies, and traffic generation (serial). The one-cycle mailbox
// deferral is invisible because it matches the link-latency timing of a
// plain Deliver, and the replay merges are invisible because each log
// preserves per-component order and the sorts restore the global sweep
// order.
//
// Params.FullTick selects the separate reference loop, stepFullTick: it
// forces one shard and ticks every switch, link and endpoint every cycle
// with no active-set or shard code, so TestActiveSetMatchesFullTick
// compares the shard loop against an independent one.
//
// Picking a shard count: shards split rows, so they only help when the
// per-cycle pipeline work dominates the serial phases — large grids
// (16+ chips) at moderate-to-high load. Small or idle systems are faster
// on one shard, and EngineShards is clamped to the row count. Shards
// compose with run-level parallelism (internal/exp's worker pool): shard a
// single big run, pool many small ones.
//
// # Event-horizon fast-forward
//
// When the system is quiescent — every shard's active sets empty and
// every boundary mailbox quiet — no component can change state
// until some scheduled future event fires. Run computes that event
// horizon, a conservative lower bound on the earliest cycle anything can
// happen, and jumps e.now there, skipping the inert cycles entirely
// (Result.IdleCyclesSkipped counts them).
//
// The horizon is the minimum over every source of future activity, each
// answering through a small interface so the engine never guesses:
//
//   - traffic.Source.NextEventCycle — the next cycle the source might
//     emit. Memoryless random sources return now+1 (they might fire any
//     cycle); phased application profiles return the next phase boundary
//     while in a zero-rate phase. Clamped to the generation window.
//   - the memory reply heap's earliest readyAt,
//   - core.Fabric.NextLaunchCycle / NextDeliveryCycle / NextFaultCycle —
//     the MAC's next possible turn start (rotate burns control energy
//     every turn and therefore always returns now+1; turn-queue policies
//     with empty queues return the earliest outage end), in-flight
//     wireless arrivals, and the fault schedule's next event,
//   - the liveness watchdog's deadline, so a wedged packet still trips
//     the age bound at the identical cycle.
//
// Correctness does not rest on the horizon being tight — only on it never
// being too far: every skipped cycle must be one the every-cycle engine
// would have spent doing pure idle accounting, which CatchUp reproduces
// in closed form. Any unsure component simply returns now+1 and the
// engine steps normally. The claim is pinned, not assumed:
// TestFastForwardByteIdentical runs the whole determinism matrix with
// fast-forward on and off at engine_shards {0,1,2,4} and requires the
// same Result JSON and the same packet trace, with the telemetry fields
// (idle_cycles_skipped, drain_cycles_*) as the only sanctioned delta.
//
// The same machinery ends the drain window early: once generation has
// stopped and the horizon is sim.Never, no packet can ever move again,
// so Run exits the drain loop immediately (Result.DrainCyclesUsed /
// DrainCyclesConfigured record the early exit). Params.EveryCycle — the
// wimcsim -every-cycle flag — disables the fast-forward and is the
// benchmark reference path (FullTick implies it).
package engine
