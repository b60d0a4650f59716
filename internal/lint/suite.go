package lint

import "wimc/internal/lint/analysis"

// DeterministicPackages are the packages under the byte-identical
// determinism contract: everything that executes between a (Config, seed)
// pair and a Result, trace, or figure table. detorder and noclock fire only
// here. internal/figures is included beyond the ISSUE's core ten because
// figure tables are diffed byte-for-byte in CI smokes — a map-ordered row
// would flap exactly like a map-ordered result. internal/spec and
// internal/store join for the same reason: spec expansion produces the
// content-address keys and the store replays cached Results, so ordering
// or clock leakage in either would silently re-key or reorder experiments.
var DeterministicPackages = []string{
	"wimc/internal/engine",
	"wimc/internal/core",
	"wimc/internal/noc",
	"wimc/internal/route",
	"wimc/internal/sim",
	"wimc/internal/stats",
	"wimc/internal/topo",
	"wimc/internal/traffic",
	"wimc/internal/energy",
	"wimc/internal/figures",
	"wimc/internal/spec",
	"wimc/internal/store",
}

// MailboxOwners are the packages allowed to touch the boundary-link mailbox
// mutation surface: noc declares it, and the engine's shard driver is the
// single writer that invokes the halves and drains under the per-cycle
// barrier.
var MailboxOwners = []string{
	"wimc/internal/noc",
	"wimc/internal/engine",
}

// MailboxMutators are the noc.Link methods that write mailbox or
// boundary-link state (the read-only accessors Mailboxed and MailboxFlits
// are deliberately absent).
var MailboxMutators = []string{
	"SetMailbox",
	"DeliverFlitHalf",
	"DeliverCreditHalf",
	"DrainFlitInbox",
	"DrainCreditInbox",
}

// Suite returns the production-wired wimclint analyzers.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		NewDetorder(DeterministicPackages),
		NewNoclock(DeterministicPackages),
		NewDeadknob("wimc/internal/config", "Config", "Validate"),
		NewShardwrite(MailboxOwners, "wimc/internal/noc", "Link", MailboxMutators),
	}
}
