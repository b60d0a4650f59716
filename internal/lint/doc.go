// Package lint is wimc's first-party static-analysis suite: four analyzers
// that prove, at compile time, properties every PR since the seed has
// defended at runtime — byte-identical results across reference paths,
// worker counts and shard counts, and a config surface with no dead or
// unvalidated knobs. The suite runs as `go run ./cmd/wimclint ./...` (a
// required CI job) and must come up clean on the tree.
//
// The analyzers are written against internal/lint/analysis, a minimal
// stdlib-only mirror of the golang.org/x/tools/go/analysis API (this build
// environment vendors nothing), loaded with full go/types information by
// internal/lint/loader via `go list -export` export data. Each analyzer has
// analysistest-style coverage over a testdata/src corpus proving it fires.
//
// # detorder
//
// Flags `range` over a map-typed operand inside the deterministic packages
// (DeterministicPackages: engine, core, noc, route, sim, stats, topo,
// traffic, energy, figures, spec, store). Map iteration order is
// randomized by the runtime, so any such loop whose order can reach a
// Result, a trace, a figure row, or a float accumulation breaks the
// determinism contract the FullTick/shard/legacy equivalence tests pin.
// Recognized as safe without annotation: loops binding no iteration
// variable, and the collection step of the sort-first idiom (`keys =
// append(keys, k)` as the sole body statement). Everything else must
// either sort keys before ranging or carry a justified escape hatch on the
// statement's line or the line above:
//
//	//lint:detorder-safe <why iteration order cannot reach a result>
//
// A bare directive with no justification is itself a finding.
//
// # noclock
//
// Forbids, in those same packages, every call that makes results depend on
// ambient process state: time.Now/Since/Until/Sleep and the timer
// constructors, os.Getenv/LookupEnv/Environ, and the top-level math/rand
// (and math/rand/v2) functions that draw from the process-global generator.
// Seeded *rand.Rand instances remain first-class: the rand.New* constructors
// are exempt and instance methods never match. There is deliberately no
// escape hatch — thread the engine's seeded *rand.Rand or pass a parameter.
//
// # deadknob
//
// Cross-references the exported fields of config.Config against the body of
// config.Validate (transitively through same-package helpers it calls) and
// fails on any field Validate never reads. A knob the validator ignores is
// either dead (set but never honored — the exclusive+single+K>1 bug fixed
// by hand in PR 3) or unvalidated (a NaN pJ/bit constant silently poisoning
// every energy figure — the class FuzzValidate caught for four floats while
// ~20 others had no checks at all until this analyzer surfaced them).
// Fields with genuinely no invalid values carry
//
//	//lint:deadknob-exempt <why every value is valid>
//
// on the field's line or the line above (currently only Name and Seed).
// New config fields must be read in Validate or the CI lint job fails.
//
// # shardwrite
//
// Restricts the mailbox/boundary-link mutation methods of noc.Link
// (SetMailbox, DeliverFlitHalf, DeliverCreditHalf, DrainFlitInbox,
// DrainCreditInbox) to the owning packages: noc, which declares them, and
// engine, whose shard driver is the single writer that invokes the halves
// under the per-cycle barrier. The PR 7 parity ping-pong is race-free only
// under that single-writer discipline, so any reference from another
// package — calls and method values alike — is a finding. Read-only
// accessors (Mailboxed, MailboxFlits) are unrestricted.
//
// # Running locally
//
//	go run ./cmd/wimclint ./...          # whole tree, all analyzers
//	go run ./cmd/wimclint -only detorder ./internal/core
//	go run ./cmd/wimclint -list
//
// The suite also runs as a plain test (TestSuiteCleanOnTree, skipped under
// -short) so `go test ./internal/lint` reproduces the CI gate.
package lint
