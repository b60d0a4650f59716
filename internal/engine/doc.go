// Package engine assembles a complete multichip system — topology, routing
// tables, switches, links, endpoints, the wireless fabric and a traffic
// source — and drives the cycle-accurate simulation loop.
//
// # Sharded execution
//
// There is one cycle loop, Engine.step, and it always runs over shards.
// The grid is partitioned into Config.EngineShards horizontal row bands;
// each shard owns the switches in its band, the links leaving them, and
// their NIs and WIs, and keeps the activity sets that decide which of them
// tick. The shards exist before the first component is built, and each
// component joins its shard the moment it is built. The wireless
// sub-channels belong to no shard: the MAC runs only in serial phases. A
// serial engine
// (EngineShards 0 or 1) is the one-shard case: one shard owns everything,
// so there are no boundary links and its barrier starts no goroutine, but
// it takes the same deferral path as every other shard count: its WIs and
// NIs log into its two logs, and step replays them. With more shards the
// two per-shard phases run across worker goroutines, and the output stays
// byte-identical — the same Result JSON and the same packet trace at every
// shard count, pinned by the determinism matrix in determinism_test.go and
// the golden corpus in corpus_test.go.
//
// Ownership is single-writer: a component's pipeline state is only mutated
// by its owning shard's goroutine, because a pipeline sweep writes only the
// swept switch, its attached WI/NI and the conduits of its output ports.
// Energy metering is shard-owned: each shard has its own part of the
// energy meter (energy.Meter.NewPart), to which its switches, the links
// leaving them and its NIs add pre-quantized fixed-point charges
// (energy.Charge, energy.FPScale) with plain, non-atomic adds; the
// wireless fabric, which charges only in serial phases, adds to the
// meter's root part. Results sum the parts, and integer sums are
// associative, so the totals are bit-identical at every shard count. A
// packet's own energy is a plain integer too (noc.Packet.AddEnergy),
// although its flits cross switches of different shards in one cycle:
// each switch, link and NI charges it once, from the head flit, for all
// its flits, so one place at a time writes it, and the wireless fabric
// charges it only in serial phases. It is read only after the tail is
// delivered, when every charge is in. The three cross-shard interactions
// are handled as follows:
//
//   - Boundary wired links (endpoints in different shards) run in mailbox
//     mode: the source shard retires flits into a parity ping-pong buffer
//     (written at cycle t, drained by the destination shard at t+1 — the
//     same cycle a plain Deliver would land them), and credits flow the
//     opposite way through a mirrored buffer. See noc.Link.SetMailbox.
//   - Wireless fabric side effects (transmit accounting, fault drops at
//     the transceiver, backlog bookkeeping) are logged as core.ShardOps
//     into per-shard operation logs during the pipeline sweep and replayed
//     serially after it, stable-sorted by WI switch ID so the merge
//     reproduces the one-shard sweep order exactly. See
//     core.ReplayShardOps. Drops in the serial phases (a WI failure, an
//     exhausted retry budget) apply at once.
//   - Endpoint-side events (noc.Event: delivery, binding to an injection
//     VC, head injection) are logged per shard during the endpoint phase
//     and replayed stable-sorted by endpoint index — again the one-shard
//     sweep order — as delivery, route classification (when a selector
//     exists) and watchdog injection tracking (when the fault model is
//     active).
//
// A cycle therefore runs serial–parallel–serial: faults, watchdog, and
// wireless launch first (serial); pipeline sweeps and link delivery per
// shard (parallel, barrier); fabric-op replay and wireless delivery
// (serial); endpoint ticks per shard (parallel, barrier); event replay,
// memory replies, and traffic generation (serial). The one-cycle mailbox
// deferral is invisible because it matches the link-latency timing of a
// plain Deliver, and the replays are invisible because nothing reads the
// logged state between the phase that logs it and its replay, each log
// preserves per-component order, and the sorts restore the global sweep
// order.
//
// The unexported Params.fullTick, set only by this package's tests,
// selects the separate reference loop, stepFullTick: it forces one shard
// and ticks every switch, link and endpoint every cycle with no
// active-set or barrier code, replaying the one shard's two logs at the
// same points as step, so TestActiveSetMatchesFullTick compares the
// shard scheduling against an independent loop.
//
// # Active sets: park and wake
//
// Each shard keeps one activity set per component kind (switches, links,
// NIs), and each sweep visits only the active members, in ascending index
// order: a strict subsequence of ticking every component, so a skipped
// component must be one whose tick would be a no-op. A component is active
// while it can act. A switch or NI that holds work but cannot act until a
// flit or a credit reaches it is parked instead: still a member of its
// set, but outside the bitmap the sweeps iterate (sim.ActiveSet.Park).
// Links never park; a busy link always has a flit or a credit coming due.
//
//   - The RC sweep, the last of the three switch sweeps, removes a switch
//     with no buffered flit and parks one that is noc.Switch.Stalled: no
//     head waits for route computation, no active VC with a buffered flit
//     holds an output VC with credit, and no VC allocation is pending.
//   - The NI sweep removes a drained NI and parks one that is
//     noc.Endpoint.Stalled: nothing is in flight to the switch or the sink,
//     no queued packet can bind a VC, and every bound VC is out of credits.
//   - Every event that can end a stall passes through one method, and that
//     method wakes the component with ActiveSet.Add: Switch.Receive (a
//     flit arrives), Switch.ReturnCredit (the first credit back on a held
//     VC whose holder has a flit buffered), Endpoint.Offer (a packet to
//     bind), Endpoint.Accept (a flit to consume) and Endpoint.ReturnCredit
//     (a credit on a bound VC).
//
// Parking keeps the output byte-identical, for three reasons:
//
//  1. A parked component's tick is a provable no-op. Stalled is exactly
//     the state in which TickSAST, TickVA and TickRC, or Endpoint.Tick,
//     return without changing anything, and only the waking events change
//     what Stalled reads. A switch frees an output VC only in its own
//     traversal, and an output port's admission cycle (the first cycle
//     its link's token bucket can spend, cached from the link's last
//     Accept), the one input that changes with time alone, is compared
//     only for a VC that could be nominated.
//  2. Membership stays fixed during the three pipeline sweeps, so a woken
//     switch first ticks in the same SA/ST sweep where the full-tick loop
//     would first find work for it. Credits reach a switch only from
//     mailbox drains (before the sweeps), link delivery (after them), NI
//     ticks (P2), Fabric.ApplyFaults and Fabric.Launch (S0) and, during a
//     traversal, the fault model's consumeDroppedFlit, which returns the
//     credit to the traversing switch itself, already active. Flits reach a switch only
//     from mailbox drains, link delivery, wireless delivery (S1) and NI
//     ticks. An NI is woken by switch traversals (P1) and by the serial S2
//     phase, never from inside the NI sweep.
//  3. Sharded, every wake either writes the waking shard's own set or runs
//     in a serial phase. NIs and WIs sit with their switch, the shard that
//     owns a boundary link's source switch drains the link's credits, and
//     Launch and wireless delivery are serial.
//
// The quiescence probe of the fast-forward counts parked members as work:
// an ActiveSet is Empty only with no active and no parked member. Active ∪
// parked is exactly the set of components holding work — switches with a
// buffered flit, NIs that are not drained — which is the membership the
// probe tested before parking existed, so no fast-forward decision
// changes. CheckPipelineInvariants, the engine's one invariant check,
// recomputes both facts for every switch and NI against its own shard's
// sets, and the saturated and sharded determinism tests call it every
// cycle: a component outside its active set is empty, drained or stalled,
// and a member is parked exactly when it holds work and is not active.
//
// # Room flags
//
// Traffic generation (generate, in the serial S2 phase) polls the source
// once per cycle with one room flag per core, Engine.room, instead of
// asking each core's NI whether its source queue can take a packet; a core
// whose flag is clear only advances the random stream past its draws
// (Uniform and Hotspot skip them as a block, without computing a value),
// and its packets are counted as generated and refused without being
// built. Each core's NI keeps its flag equal to
// len(queue) < queueCap (noc.Endpoint.SetRoomFlag): Offer clears it when
// the queue fills, and Tick sets it when it binds a packet out of the
// queue. The ownership rule: a flag is written only by its owner NI,
// during the NI phase P2 (Tick, on the NI's shard) or inside generate
// (Offer), and read only inside generate, after the P2 barrier. So a read
// never races a write, and the flags generate reads are the queue states
// the per-core Offers of the one-shard loop would have found — an Offer
// to one core cannot change another core's queue. Each flag is its own
// byte, so shards writing neighboring flags never write the same memory.
// CheckPipelineInvariants recomputes every core NI's flag from its queue,
// so the saturated determinism tests check the rule every cycle.
//
// Picking a shard count: shards split rows, so they only help when the
// per-cycle pipeline work dominates the serial phases — large grids
// (16+ chips) at moderate-to-high load. Small or idle systems are faster
// on one shard, and EngineShards is clamped to the row count. Shards
// compose with run-level parallelism (store.RunPoints' worker pool):
// shard a single big run, pool many small ones.
//
// # Event-horizon fast-forward
//
// When the system is quiescent — every shard's activity sets empty, with
// no active and no parked member, and every boundary mailbox quiet — no
// component can change state
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
//   - the earliest readyAt of the pending memory replies (the first, as
//     they are kept in delivery order),
//   - core.Fabric.NextLaunchCycle / NextDeliveryCycle / NextFaultCycle —
//     the MAC's next possible turn start (rotate burns control energy
//     every turn and therefore always returns now+1; the other policies,
//     whose turn queues hold only backlogged WIs, return the earliest
//     outage end when their queues are empty), in-flight wireless
//     arrivals, and the fault schedule's next event,
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
// benchmark reference path (the full-tick reference loop implies it).
package engine
