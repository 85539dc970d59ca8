// Package perf is the emulator's performance ledger: a declared suite
// of hot-path benchmarks, a schema-versioned on-disk trajectory of
// their results (BENCH_<stamp>.json files), and a compare/gate layer
// that turns "this PR made the kernel faster" from an assertion into a
// measurement checked by CI.
//
// The design splits three concerns:
//
//   - The suite (DefaultSuite) declares WHAT is measured: ordinary
//     func(*testing.B) benchmarks, shared verbatim with `go test
//     -bench` via the root bench_test.go, so a human's benchmark run
//     and the ledger's are the same code.
//   - The runner (RunSuite) controls HOW: it executes the suite via
//     testing.Benchmark with a configurable benchtime, so CI can gate
//     at -benchtime 10x while measurement runs use wall-clock targets.
//   - The ledger (Ledger, Save, Latest) records WHERE IT CAME FROM:
//     ns/op, allocs/op, custom metrics, the commit, and a host
//     fingerprint, because a trajectory of numbers without provenance
//     cannot be compared honestly.
//
// Compare and Gate diff two ledgers under a noise threshold: wall-time
// ratios tolerate scheduler jitter (Thresholds.Time), while allocs/op
// — exact for a deterministic emulator — are held to a tight bound
// (Thresholds.Allocs), which is what CI gates on across heterogeneous
// runners.
package perf

import "testing"

// Bench is one declared benchmark of the perf suite. F is an ordinary
// Go benchmark function so the same definition backs `go test -bench`
// and `bcectl bench run`.
type Bench struct {
	// Name keys the benchmark in ledgers; it must stay stable across
	// commits for trajectories to line up.
	Name string
	// Doc is a one-line description shown by `bcectl bench run -list`.
	Doc string
	F   func(b *testing.B)
}
