package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bce/internal/perf"
)

// gateSuite is the cheapest declared hot-path benchmark; at
// benchtime 10x, the setting CI gates at, the whole gate run costs
// microseconds, so the test exercises the real `bcectl bench gate`
// path end to end.
const gateSuite = "fetch_decide"

// quiet is a bcectl invocation that discards what it prints.
var quiet = &cli{stdout: io.Discard, stderr: io.Discard}

// writeBaseline records a BENCH file for gateSuite with the given
// allocs/op and returns its path. Wall time is gated off (Time: -1 in
// the tests below), so only the alloc axis decides.
func writeBaseline(t *testing.T, dir string, allocs int64) string {
	t.Helper()
	l := &perf.Ledger{
		Schema: perf.Schema,
		Stamp:  "20260101T000000",
		Suite:  gateSuite,
		Entries: []perf.Entry{
			{Name: gateSuite, Iters: 1, NsPerOp: 1, AllocsPerOp: allocs},
		},
	}
	path, err := perf.Save(dir, l)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBenchGateSyntheticRegression injects a synthetic regression — a
// baseline ledger claiming the benchmark allocates nothing — and
// asserts `bcectl bench gate` fails against it, naming the benchmark.
func TestBenchGateSyntheticRegression(t *testing.T) {
	dir := t.TempDir()
	baseline := writeBaseline(t, dir, 0) // real run allocates > 0: guaranteed regression
	th := perf.Thresholds{Time: -1, Allocs: 0.10}
	err := quiet.benchGate(gateSuite, "10x", "", baseline, th)
	if err == nil {
		t.Fatal("gate must fail on an injected allocation regression")
	}
	if !strings.Contains(err.Error(), gateSuite) || !strings.Contains(err.Error(), "allocs") {
		t.Fatalf("gate error should name the benchmark and the regressed axis: %v", err)
	}
}

// TestBenchGatePassesAgainstHonestBaseline records a fresh baseline
// with `bench run` and gates a second run against it: with wall time
// ungated and allocation counts deterministic, the gate must pass.
func TestBenchGatePassesAgainstHonestBaseline(t *testing.T) {
	dir := t.TempDir()
	if _, err := quiet.benchRunSuite(gateSuite, "10x", dir); err != nil {
		t.Fatal(err)
	}
	th := perf.Thresholds{Time: -1, Allocs: 0.10}
	if err := quiet.benchGate(gateSuite, "10x", "", dir, th); err != nil {
		t.Fatalf("gate vs a just-recorded baseline must pass: %v", err)
	}
}

// TestBenchGateRejectsCorruptBaseline makes sure a damaged ledger is a
// loud error, not a silently-passing gate.
func TestBenchGateRejectsCorruptBaseline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_20260101T000000.json")
	if err := os.WriteFile(path, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := quiet.benchGate(gateSuite, "10x", "", path, perf.Thresholds{Time: -1, Allocs: 0.10})
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("want corrupt-baseline error, got %v", err)
	}
}

// TestBenchRunWritesLedger checks `bench run -out` produces a ledger
// that round-trips through the loader with the suite's entries.
func TestBenchRunWritesLedger(t *testing.T) {
	dir := t.TempDir()
	if _, err := quiet.benchRunSuite(gateSuite, "10x", dir); err != nil {
		t.Fatal(err)
	}
	l, _, err := perf.Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if l.Suite != gateSuite || l.Entry(gateSuite) == nil {
		t.Fatalf("recorded ledger missing %s entry: %+v", gateSuite, l)
	}
	// The file is real JSON with the schema marker, not just loadable.
	paths, err := perf.List(dir)
	if err != nil || len(paths) != 1 {
		t.Fatalf("want exactly one ledger file, got %v (%v)", paths, err)
	}
	var raw map[string]any
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if raw["schema"] != float64(perf.Schema) {
		t.Fatalf("schema field: got %v", raw["schema"])
	}
}
