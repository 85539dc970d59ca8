package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"os"
	"testing"
	"time"
)

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks that each reports every metric of its kind, finite and with
// the registry's unit, and no failed operation.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			res, err := run(context.Background(), w.name, 7, 300*time.Millisecond, trace, true, dir, "", io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, s := range want {
				m, ok := res.Metrics[s.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: no %s", w.name, trace, s.name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.name, trace, s.name, m.Value)
				case m.Unit != s.unit || m.Unit == "":
					t.Errorf("%s trace=%v: %s has unit %q, want %q", w.name, trace, s.name, m.Unit, s.unit)
				}
			}
		}
	}
}

// TestForgedDigestFails checks that an expected digest the outputs do
// not match is reported as a failed, incorrect run.
func TestForgedDigestFails(t *testing.T) {
	res, err := run(context.Background(), "study", 7, time.Millisecond, false, true, t.TempDir(), "0123456789abcdef", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("forged digest accepted: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// TestManifestUpToDate keeps BENCHMARK.json in step with the registry;
// regenerate it with: go run . --manifest ../BENCHMARK.json
func TestManifestUpToDate(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate with: go run . --manifest ../BENCHMARK.json")
	}
}
