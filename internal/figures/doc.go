// Package figures regenerates every table and figure of the paper's
// evaluation (§IV) plus five ablations of the model's design choices and
// three extension experiments the paper never ran: the hybrid
// interposer+wireless architecture, memory read round trips, and the
// large-system scale sweep (saturation throughput and energy per bit at 4
// to 64 chips — ScaleSweep). Each experiment returns a Table that the
// wimcbench command renders as text or CSV and that bench_test.go drives
// under testing.B.
//
// Every generator funnels its independent simulation runs through the
// parallel experiment runner (internal/exp), so tables regenerate
// bit-identically at any worker count.
package figures
