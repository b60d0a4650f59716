// Package core implements the paper's primary contribution: the seamless
// wireless interconnection fabric for multichip systems.
//
// Each wireless interface (WI) is a pair of extra ports on its host switch.
// The transmit side has one queue per virtual channel (the paper gives
// every port, "including those with the wireless transceivers", 8 VCs with
// 16-flit buffers); flow control into the TX queues uses the ordinary
// credit mechanism. The receive side allocates VCs by packet ID, exactly as
// the control-packet MAC prescribes: the (DestWI, PktID, NumFlits) 3-tuples
// — at most one per output VC — let a WI transmit *partial* packets while
// the receiver demultiplexes flits into the correct VC, preserving wormhole
// integrity.
//
// Two channel models are provided:
//
//   - ChannelCrossbar: every WI pair is a direct link; each WI transmits at
//     most one flit per cycle and each WI receives at most one flit per
//     cycle (round-robin ingress arbitration), with total concurrent
//     transmissions capped by WirelessChannels. This is the
//     results-consistent model implied by the paper's reported bandwidth
//     and latency.
//   - ChannelExclusive: the literal PHY description — shared media at the
//     transceiver data rate, granted to one WI at a time by the MAC
//     (control-packet protocol or whole-packet token baseline).
//
// # Channel assignment (exclusive model)
//
// The exclusive model generalizes from one shared medium to K =
// WirelessChannels orthogonal mm-wave sub-channels (after the
// multi-channel transceivers of Chang et al. [6]). config.ChannelAssign
// selects how WIs map onto them:
//
//   - single: the pre-PR3 behavior — every WI takes turns on one channel
//     (requires WirelessChannels == 1; a larger count would be silently
//     dead, which config.Validate rejects).
//   - static-partition: WIs are split into K groups round-robin by WI
//     index, interleaving chip-major neighbors across channels.
//   - spatial-reuse: the package grid is divided into K near-square zones
//     and each zone's WIs share one sub-channel, so far-apart WI groups
//     transmit concurrently while close neighbors take turns — spatial
//     frequency reuse.
//
// Each sub-channel runs its own MAC turn sequence (control-packet or
// token) over its members with its own token bucket at the transceiver
// rate, so aggregate wireless capacity scales with K. A turn holder may
// address any WI in the package; receivers are multi-band and the shared
// per-VC receive-space reservations keep concurrent channels from
// overrunning a receiver. Fabric.ConcurrencyBudget reports the number of
// populated sub-channels — the normalization the engine uses for wireless
// link utilization.
//
// The pre-sub-channel single-channel MAC is retained verbatim in
// mac_legacy.go as a reference path (Fabric.SetLegacySingleChannel, which
// the engine's tests reach through the unexported Params.legacyMAC), and
// the engine's equivalence regression asserts the K=1 rotate fabric is
// byte-identical to it for both MAC protocols — two different turn
// machines, since the legacy MAC advances a fixed index.
//
// # Turn arbitration policies
//
// Every sub-channel runs one turn machine (policy.go): an O(1)
// doubly-linked active-turn queue whose head is granted the next turn,
// with the holder re-enqueued at the tail when its turn closes while it
// still wants turns. config.MACPolicyMode selects who stays queued and
// what a turn may announce or retain:
//
//   - rotate: the queue keeps every member, idle or not, so turns follow
//     the paper's fixed round-robin — the default, byte-identical to the
//     pre-policy fabric (pinned by the legacy-equivalence regression, the
//     determinism matrix and the engine's Result/trace corpus).
//   - skip-empty: the queue holds exactly the members with buffered TX
//     flits (enqueued on first flit arrival in WI.Accept, re-enqueued at
//     the tail after a turn while backlogged). Idle WIs are never granted
//     turns and an idle channel broadcasts nothing — with the whole
//     fabric idle, the engine skips Launch entirely and settles the
//     accounting through CatchUp, like the crossbar.
//   - drain-aware: skip-empty plus announcements sized against the
//     receiver's live drain estimate (credits returned per
//     drainWindowCycles). A turn may announce a packet's remaining flits
//     beyond the instantaneous receive window and beyond its own TX
//     buffer — the (DestWI, PktID, NumFlits) 3-tuple already names the
//     whole transfer — with unreserved flits reserving lazily at transmit
//     time as the receiver drains, so a full-size packet finishes in one
//     turn instead of one turn per buffer's worth. A turn that stops
//     moving (receiver stalled, flits stuck upstream) cancels its
//     unreserved remainder after drainStallLimit wasted transmit
//     opportunities, which keeps the policy deadlock-free by the same
//     bounded-stall argument as the token MAC.
//   - weighted: skip-empty plus deficit round-robin — a granted member
//     accrues a transmission budget proportional to its TX backlog and
//     retains consecutive turns while it has budget, backlog and forward
//     progress. Budgets are capped by the TX buffer capacity, bounding
//     every queued member's wait (the starvation-bound test proves the
//     window).
//
// Fabric.CheckMACInvariants recomputes the announce accounting and every
// policy's turn-queue consistency from the underlying queues — the fabric-side
// sibling of noc.Switch.CheckPipelineInvariants — and the engine folds it
// into its every-cycle invariant check; the historical "nothing announced
// remains" fallthrough is a counted AnnounceUnderflows violation, never a
// silent zero.
//
// Receivers are power-gated ("sleepy transceivers", after Mondal & Deb
// [17]) whenever announced traffic is not addressed to them; every WI
// wakes for control broadcasts, so higher K trades a higher awake fraction
// for concurrency.
//
// # Fault model
//
// fault.go adds a seeded, deterministic fault-injection layer over the
// exclusive fabric (armed only while config.FaultModelActive; a fault-free
// configuration runs the exact pre-fault code path, byte-identical):
//
//   - Packet error probability: per-pair PER scaled by squared grid
//     distance (path loss), wireless_per at the farthest pair. A corrupted
//     flit fails CRC at the receiving WI, NACKs, and retransmits under
//     exponential per-WI backoff; an uncommitted head flit burns a
//     wireless_retry_limit budget and the packet is abandoned (Drops,
//     RetryExhausted) when it runs out, the transmitter entering a
//     degraded window the engine's failover selector routes around.
//   - Fault schedule: config.FaultSchedule injects transient sub-channel
//     outage windows (the channel freezes; a delay, never a loss) and
//     permanent fail-stop WI deaths at exact cycles. A dead WI is excised
//     from its sub-channel's turn machinery — uncommitted queued packets
//     drop with credits returned, committed wormholes drain, and once
//     drained it leaves the queue (or, under rotate, passes to the tail
//     unserved) while survivors keep arbitrating (the starvation test pins
//     this) — and later arrivals at the dead transceiver drop at
//     acceptance.
//
// Every dropped flit is counted in DroppedFlits so flit conservation
// holds with loss; FaultNotice callbacks surface drop/retransmit/wi-fail
// events to the engine's trace.
package core
