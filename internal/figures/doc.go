// Package figures regenerates every table and figure of the paper's
// evaluation (§IV) plus five ablations of the model's design choices and
// seven extension experiments the paper never ran: the hybrid
// interposer+wireless architecture, memory read round trips, the
// large-system scale sweep (saturation throughput and energy per bit at 4
// to 64 chips — ScaleSweep), and the sub-channel, MAC-policy, hybrid
// route-selection and fault-injection sweeps. Each experiment returns a
// Table that the wimcbench command renders as text or CSV and that
// bench_test.go drives under testing.B.
//
// Every figure is a spec grid: it builds its simulation points as
// internal/spec axes over the default configuration and runs them with
// store.RunSpec, the same path wimcd, wimcbench -spec and FromSpec take.
// Wherever the architecture or the chip count varies, an axis point
// carries the whole configuration (an XCYM preset names itself and clamps
// its sub-channel count per architecture and size, so patching only the
// arch field would run a different system); single-field knobs are
// partial patches. A figure's points are therefore expanded, validated
// and keyed exactly like a spec file's, cached through Opts.Store when
// one is set, and run by store.RunPoints either way, so tables
// regenerate bit-identically at any worker count, cached or not.
package figures
