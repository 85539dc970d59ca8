package report

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"bce/internal/client"
	"bce/internal/experiments"
	"bce/internal/fetch"
	"bce/internal/harness"
	"bce/internal/host"
	"bce/internal/job"
	"bce/internal/project"
	"bce/internal/sched"
)

func sampleFigure() *experiments.Figure {
	return &experiments.Figure{
		ID: "figX", Title: "sample sweep", XLabel: "bound", YLabel: "wasted",
		Labels: []string{"A", "B"},
		X:      []float64{1000, 1500, 2000},
		Y: map[string][]float64{
			"A": {0.5, 0.2, 0.1},
			"B": {0.5, 0.5, 0.4},
		},
		Notes: "A should fall faster",
	}
}

func barFigure() *experiments.Figure {
	return &experiments.Figure{
		ID: "figY", Title: "two bars", XLabel: "metric", YLabel: "value",
		Labels: []string{"L"},
		X:      []float64{0, 1},
		Y:      map[string][]float64{"L": {0.3, 0.6}},
	}
}

func tinyVariant(label string) harness.Variant {
	return harness.Variant{Label: label, Make: func(seed int64) client.Config {
		h := host.StdHost(1, 1e9, 0, 0)
		h.Prefs.MinQueue = 600
		h.Prefs.MaxQueue = 1800
		return client.Config{
			Host: h,
			Projects: []project.Spec{{
				Name: "p", Share: 1,
				Apps: []project.AppSpec{{
					Name: "a", Usage: job.Usage{AvgCPUs: 1},
					MeanDuration: 500, LatencyBound: 86400, CheckpointPeriod: 60,
				}},
			}},
			JobSched: sched.JSLocal,
			JobFetch: fetch.JFHysteresis,
			Duration: 3 * 3600,
			Seed:     seed,
		}
	}}
}

func render(t *testing.T, r *Report) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestFigureSection(t *testing.T) {
	r := New("test report")
	r.AddFigure(sampleFigure())
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
	html := render(t, r)
	for _, want := range []string{
		"<!doctype html", "test report", "figX: sample sweep",
		"<polyline", "A should fall faster", "<table>", "0.5000",
	} {
		if !strings.Contains(html, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestBarFigureSection(t *testing.T) {
	r := New("bars")
	r.AddFigure(barFigure())
	html := render(t, r)
	if !strings.Contains(html, "<rect") || strings.Contains(html, "<polyline") {
		t.Fatal("two-point figure should render as bars")
	}
}

func TestComparisonSection(t *testing.T) {
	cmp, err := harness.Compare(context.Background(), []harness.Variant{tinyVariant("P1"), tinyVariant("P2")}, harness.Seeds(1))
	if err != nil {
		t.Fatal(err)
	}
	r := New("cmp")
	r.AddComparison("policy shoot-out", cmp)
	html := render(t, r)
	for _, want := range []string{"policy shoot-out", "P1", "P2", "rpcs_per_job", "±"} {
		if !strings.Contains(html, want) {
			t.Fatalf("comparison report missing %q", want)
		}
	}
}

func TestSweepSection(t *testing.T) {
	sw, err := harness.Sweep(context.Background(), "x", []float64{1, 2, 3},
		func(x float64) []harness.Variant { return []harness.Variant{tinyVariant("v")} },
		harness.Seeds(1))
	if err != nil {
		t.Fatal(err)
	}
	r := New("sweep")
	r.AddSweep("idle vs x", sw, "idle")
	html := render(t, r)
	if !strings.Contains(html, "idle vs x") || !strings.Contains(html, "<polyline") {
		t.Fatal("sweep section malformed")
	}
}

func TestProseEscaped(t *testing.T) {
	fig := barFigure()
	fig.Notes = "<script>alert(1)</script>"
	r := New("esc")
	r.AddFigure(fig)
	html := render(t, r)
	if strings.Contains(html, "<script>alert") {
		t.Fatal("prose not escaped")
	}
	if !strings.Contains(html, "&lt;script&gt;") {
		t.Fatal("escaped prose missing")
	}
}

func TestEmptyReport(t *testing.T) {
	html := render(t, New("empty"))
	if !strings.Contains(html, "empty") || !strings.Contains(html, "</html>") {
		t.Fatal("empty report malformed")
	}
}
