// Package trustcoop is a from-scratch Go reproduction of "Trust-Aware
// Cooperation" (Despotovic, Aberer, Hauswirth; ICDCS 2002): a trust-aware
// mechanism for scheduling exchanges of goods for money between mutually
// distrustful parties in online communities.
//
// The public surface lives in the internal packages (this repository is a
// self-contained research artifact); see docs/ARCHITECTURE.md for the system
// inventory, cmd/evalrun (experiments E1–E13, listed by eval.IDs) and
// docs/PERF.md for the evaluation, and examples/ for runnable entry points.
//
// The root package intentionally contains no code besides the repository-wide
// benchmark harness (bench_test.go), which regenerates every experiment table.
package trustcoop
