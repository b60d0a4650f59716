package core

import (
	"wimc/internal/noc"
	"wimc/internal/sim"
)

// This file is the fabric's side of the engine's sharded execution mode.
//
// During the parallel pipeline phase, every shard sweeps only its own
// switches, so WI.Accept (and the fault model's acceptance paths) run
// concurrently across shards. All per-WI state they touch is single-writer
// — a WI is fed by exactly one switch, owned by exactly one shard — but a
// handful of mutations are fabric-global: the txTotal launch predicate,
// the per-sub-channel backlog counters and turn queues, and the
// fault-model drop statistics and engine notices. While fb.deferring is
// set, those globals are logged as ShardOps in the accepting WI's shard
// log instead of applied; after the barrier the engine merges the logs in
// ascending host-switch order — exactly the order the serial engine's
// ascending pipeline sweep would have applied them — and replays them
// here. At most one Accept reaches a WI per cycle (its host switch moves
// at most one flit into the wireless output port per cycle), so switch ID
// is a unique, stable merge key.

// ShardOpKind labels one deferred fabric-global operation.
type ShardOpKind uint8

// Deferred operation kinds.
const (
	// OpAccept is the fabric-global half of WI.Accept: count the flit into
	// txTotal and, when the WI turned backlogged, into its sub-channel's
	// contention counter and turn queue.
	OpAccept ShardOpKind = iota
	// OpDrop is the fabric-global half of a fault-model packet drop: the
	// drop counter and the engine's fault notice.
	OpDrop
	// OpConsume is the fabric-global half of blackholing one flit of an
	// abandoned packet: the dropped-flit conservation counter.
	OpConsume
)

// ShardOp is one deferred fabric-global operation, replayed serially.
type ShardOp struct {
	W    *WI
	Kind ShardOpKind
	// First records, for OpAccept, that the accept took the WI's TX buffer
	// from empty to non-empty (evaluated at log time; popTx only runs in
	// serial phases, so the predicate cannot shift before replay).
	First bool
	// Pkt and Reason carry the OpDrop notice payload.
	Pkt    *noc.Packet
	Reason string
}

// SetDeferred switches the fabric in or out of deferred (sharded parallel
// phase) mode. Engine serial phases only.
func (fb *Fabric) SetDeferred(on bool) { fb.deferring = on }

// ReplayShardOps applies deferred operations in the given order. The
// engine pre-merges every shard's log by ascending W.SwitchID (stable), so
// replay order equals serial pipeline-sweep order.
func (fb *Fabric) ReplayShardOps(now sim.Cycle, ops []ShardOp) {
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpAccept:
			fb.txAdded(op.W, op.First)
		case OpDrop:
			fb.Drops++
			if fs := fb.faults; fs != nil && fs.onFault != nil {
				fs.onFault(now, FaultNotice{Kind: "drop", WI: op.W.Index, Pkt: op.Pkt, Reason: op.Reason})
			}
		case OpConsume:
			fb.DroppedFlits++
		}
	}
}

// SubChannels returns the number of exclusive-model sub-channels (0 for
// the crossbar model and the legacy single-channel MAC).
func (fb *Fabric) SubChannels() int { return len(fb.subs) }

// SubChannelHostSwitch returns the host switch of sub-channel ci's first
// member WI — the engine assigns each sub-channel to the shard owning that
// switch for per-shard invariant checking.
func (fb *Fabric) SubChannelHostSwitch(ci int) (id sim.SwitchID, ok bool) {
	if ci < 0 || ci >= len(fb.subs) || len(fb.subs[ci].members) == 0 {
		return 0, false
	}
	return fb.subs[ci].members[0].SwitchID, true
}
