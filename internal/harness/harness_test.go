package harness

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"bce/internal/client"
	"bce/internal/fetch"
	"bce/internal/host"
	"bce/internal/job"
	"bce/internal/project"
	"bce/internal/sched"
)

func tinyConfig(seed int64) client.Config {
	h := host.StdHost(1, 1e9, 0, 0)
	h.Prefs.MinQueue = 600
	h.Prefs.MaxQueue = 1800
	return client.Config{
		Host: h,
		Projects: []project.Spec{{
			Name: "p", Share: 1,
			Apps: []project.AppSpec{{
				Name:             "a",
				Usage:            job.Usage{AvgCPUs: 1},
				MeanDuration:     500,
				LatencyBound:     86400,
				CheckpointPeriod: 60,
			}},
		}},
		JobSched: sched.JSLocal,
		JobFetch: fetch.JFHysteresis,
		Duration: 6 * 3600,
		Seed:     seed,
	}
}

func tinyVariant(label string) Variant {
	return Variant{Label: label, Make: tinyConfig}
}

func TestReplicateAggregates(t *testing.T) {
	cmp, err := Compare(context.Background(), []Variant{tinyVariant("x")}, Seeds(3))
	if err != nil {
		t.Fatal(err)
	}
	agg := cmp.Aggs["x"]
	if agg.N != 3 || len(agg.Raw) != 3 {
		t.Fatalf("agg.N = %d, want 3", agg.N)
	}
	for i, v := range agg.Mean {
		if v < 0 || v > 1 {
			t.Fatalf("mean metric %d = %v out of range", i, v)
		}
	}
	if agg.MetricByName("idle") != agg.Mean[0] {
		t.Fatal("MetricByName(idle) mismatch")
	}
	if v := agg.MetricByName("nope"); v == v { // NaN check
		t.Fatalf("unknown metric should be NaN, got %v", v)
	}
}

func TestSeedsDeterministic(t *testing.T) {
	a, b := Seeds(5), Seeds(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Seeds not deterministic")
		}
	}
	if len(Seeds(0)) != 0 {
		t.Fatal("Seeds(0) should be empty")
	}
}

func TestCompareAndTable(t *testing.T) {
	cmp, err := Compare(context.Background(), []Variant{tinyVariant("A"), tinyVariant("B")}, Seeds(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Variants) != 2 {
		t.Fatalf("variants = %v", cmp.Variants)
	}
	table := cmp.Table()
	for _, want := range []string{"policy", "idle", "A", "B"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
	// Same config, same seeds: identical aggregates.
	if cmp.Aggs["A"].Mean != cmp.Aggs["B"].Mean {
		t.Fatal("identical variants diverged")
	}
}

func TestSweep(t *testing.T) {
	mk := func(x float64) []Variant {
		return []Variant{{Label: "only", Make: func(seed int64) client.Config {
			cfg := tinyConfig(seed)
			cfg.Projects[0].Apps[0].MeanDuration = x
			return cfg
		}}}
	}
	sw, err := Sweep(context.Background(), "duration", []float64{200, 400}, mk, Seeds(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != 2 || sw.Points[0].X != 200 {
		t.Fatalf("sweep points wrong: %+v", sw.Points)
	}
	xs, ys := sw.Series("only", "idle")
	if len(xs) != 2 || len(ys) != 2 {
		t.Fatal("series extraction wrong")
	}
	table := sw.Table("idle")
	if !strings.Contains(table, "duration") || !strings.Contains(table, "only") {
		t.Fatalf("sweep table malformed:\n%s", table)
	}
}

func TestSweepCSV(t *testing.T) {
	mk := func(x float64) []Variant { return []Variant{tinyVariant("v")} }
	sw, err := Sweep(context.Background(), "p", []float64{1}, mk, Seeds(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sw.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Header + 5 metrics.
	if len(lines) != 6 {
		t.Fatalf("CSV lines = %d, want 6:\n%s", len(lines), buf.String())
	}
	if lines[0] != "p,variant,metric,value" {
		t.Fatalf("CSV header = %q", lines[0])
	}
}

// staleVariant reuses one live host across calls — exactly the aliasing
// bug the fresh-state audit guards against.
func staleVariant() Variant {
	shared := tinyConfig(1)
	return Variant{Label: "stale", Make: func(seed int64) client.Config {
		cfg := shared
		cfg.Seed = seed
		return cfg
	}}
}

func TestReplicateRejectsSharedHost(t *testing.T) {
	if _, err := Compare(context.Background(), []Variant{staleVariant()}, Seeds(2)); err == nil ||
		!strings.Contains(err.Error(), "shared *host.Host") {
		t.Fatalf("want shared-host rejection, got %v", err)
	}
}

func TestCompareRejectsSharedHost(t *testing.T) {
	_, err := Compare(context.Background(), []Variant{tinyVariant("ok"), staleVariant()}, Seeds(2))
	if err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("want shared-host rejection naming the variant, got %v", err)
	}
}

// Every sweep point builds its own variants, so each one must pass the
// fresh-state check, not only the first point's.
func TestSweepRejectsSharedHostAtLaterPoint(t *testing.T) {
	mk := func(x float64) []Variant {
		if x == 2 {
			return []Variant{staleVariant()}
		}
		return []Variant{tinyVariant("stale")}
	}
	_, err := Sweep(context.Background(), "x", []float64{1, 2}, mk, Seeds(2))
	if err == nil || !strings.Contains(err.Error(), "shared *host.Host") {
		t.Fatalf("want shared-host rejection at x=2, got %v", err)
	}
}

func TestVariantMakeBuildsFreshState(t *testing.T) {
	v := tinyVariant("fresh")
	a, b := v.Make(1), v.Make(2)
	if a.Host == b.Host {
		t.Fatal("tinyVariant reuses its *host.Host across Make calls")
	}
}
