// Package route computes forwarding state for the multichip network.
//
// # Table modes
//
// Two table constructions are provided:
//
//   - RouteShortest (default): true per-source shortest paths computed by
//     Dijkstra's algorithm with deterministic tie-breaking that prefers
//     horizontal wired hops, then vertical wired hops, then I/O links, then
//     wireless hops. Inside a chip mesh this degenerates to XY routing,
//     which is deadlock-free; global deadlock safety is verified with an
//     explicit channel-dependency-graph check.
//
//   - RouteTree: all traffic follows a single shortest-path tree rooted at
//     a seeded-random switch — the paper's literal description, which is
//     trivially deadlock-free because tree paths have no cyclic channel
//     dependencies.
//
// Wireless interfaces form a full graph: every WI pair is one hop at a
// configurable routing weight.
//
// # Class tables
//
// On hybrid packages (interposer wiring plus the wireless overlay) a single
// static table forces every injection onto one medium choice forever. The
// multi-class layer (BuildClasses) instead builds one table per fabric
// class, sharing the parallel Dijkstra machinery:
//
//   - ClassWirelessPreferred (class 0): the full-graph shortest-path table —
//     byte-identical to the single table Build produces, so the default
//     remains exactly the pre-class behavior.
//
//   - ClassWiredOnly (class 1): shortest paths over the wired edges only,
//     without the wireless overlay. On a hybrid this is the interposer
//     underlay; distant traffic that class 0 sends over one wireless hop
//     instead walks the wires.
//
// ClassTables.TxWI precomputes, for every (source, destination) switch
// pair, the host switch of the transmitting WI on the class-0 route (or
// sim.NoSwitch when that route never goes wireless) — the O(1) lookup the
// adaptive selector needs to read the right transmitter's load.
//
// # Selectors
//
// A Selector picks the route class of each packet at injection time.
// StaticSelector always answers ClassWirelessPreferred — the single-table
// behavior, proven byte-identical by the engine's
// TestStaticSelectorEquivalence. AdaptiveSelector spills wireless-bound
// packets onto the wired class while the transmitting WI is saturated
// (TX-backlog, MAC turn-queue and wired-credit signals, supplied live by
// the engine through a LoadProbe) and pulls them back when it drains;
// per-WI hysteresis bounds the flip rate so routes cannot flap per packet,
// and a class is fixed at injection, so one packet's flits always follow
// one table.
//
// # Deadlock freedom of the union
//
// With per-packet class selection, flits routed by different tables occupy
// the same physical channels concurrently, so acyclicity of each table's
// channel dependency graph alone is not sufficient: a hold-and-wait chain
// may cross tables. CheckDeadlockFreeUnion therefore walks every class
// table over one shared CDG — a channel depends on another if ANY class
// routes them consecutively — and requires the union to be acyclic. Both
// class tables derive from the same rank ordering (horizontal before
// vertical before I/O), so their wired segments obey one turn discipline
// and the union check passes on every shipped preset; it runs at engine
// build time exactly like the single-table check did.
//
// A hop between two WI switches that a wired edge also joins (a memory
// logic WI and the chip WI it hangs off by wide I/O) travels the wire: the
// engine forwards onto the wired port first, and only the wireless fabric
// moves a flit to the post-wireless VC class. The check models it that
// way. IsWireless, and TxWI with it, still report every WI pair as
// wireless, so TxWI names the switch at the start of such a wide-I/O hop
// as the route's transmitter although nothing is transmitted there.
//
// # Construction cost
//
// Every engine build computes the class tables and runs the union check,
// and at 64 chips (n ≈ 1,100 switches, W = 128 WIs) they dominate set-up.
// Per destination, a table costs one relaxation per wired arc plus O(W)
// for the wireless overlay; the check is linear in the n² table entries.
//
//   - Shortest paths use a monotone radix heap: 33 buckets, indexed by the
//     highest bit in which a key differs from the last popped key. It is
//     exact for any non-negative int32 key and sizes nothing by the
//     largest weight, so a 65,536-cycle mesh latency costs what a 1-cycle
//     one does (Validate bounds no latency). Tree routing drains each
//     bucket of equal keys in node order, the (distance, node) pop order
//     its parent choice depends on.
//   - The wireless full graph is never materialized. Dijkstra relaxes it
//     through a virtual hub: WI→hub at wireless_hop_weight, hub→WI at 0.
//     That gives the same distances as the W·(W−1) pair arcs with O(W)
//     work per destination. The next hop still scans a switch's wired
//     arcs in tie-break order; when none lies on a shortest path, the
//     switch is a WI whose distance came from the hub, and the scan over
//     wireless arcs would pick the lowest-ID WI one wireless hop closer —
//     one choice per destination, computed once.
//   - Destinations are filled in blocks of 16 columns, so each table row
//     is written as one contiguous run.
//   - A table stores only Next per pair. Path costs live only in the
//     builders' working arrays: they are routing weights (a wireless hop
//     costs wireless_hop_weight, not its latency), which no latency model
//     can use, and the tests derive them from Next.
//   - The deadlock check numbers the directed links in (u, v) order and
//     names a channel link*3+class, so the CDG lives in dense slices and
//     ascending channel IDs are ascending (u, v, class) triples. The DFS
//     starts from the used channels in that order and follows
//     dependencies in first-insertion order; that fixes which cycle it
//     meets first, so the error text depends only on the routes, not on
//     how channels are stored. A per-channel successor bitset
//     deduplicates dependencies, and a link lookup scans the handful of
//     wired links of a switch or indexes the WI pair table directly.
//   - The check walks each (table, destination) epoch's routes once per
//     state. A source whose phase-0 state an earlier walk of the epoch
//     has visited is skipped: its whole route is already recorded. A walk
//     that reaches a visited state records the dependency into it with the
//     channel stored for that state, without looking the hop up again.
//   - The walks and txWITable read the destination columns of Next in
//     tiles of 64: each row contributes one contiguous run of 64 entries,
//     copied into 64 contiguous columns, instead of a read that strides a
//     whole row per entry. Nothing the size of a table is copied.
//   - The check splits the epochs into contiguous chunks, one per worker
//     of the pool the tables were built with (Params.BuildWorkers in the
//     engine). Each chunk builds its own successor lists, and the chunks
//     merge in epoch order, each adding only successors not yet present.
//     Every epoch's walk depends only on its table and destination, so a
//     channel's merged successors are in the order a serial walk would
//     first have inserted them: the DFS, the cycle it reports and the
//     error text do not depend on the worker count. A walk error is the
//     first one of the lowest failing chunk, which is the first one a
//     serial walk would meet.
package route
