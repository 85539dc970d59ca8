package main

import (
	"strings"
	"testing"

	"bce/internal/experiments"
)

// TestFigureChart pins the one ASCII chart renderer, which prints both
// the figures and the sweep's chart: a "y vs x" header with the y
// maximum, one glyph per point and a legend naming each curve's glyph.
func TestFigureChart(t *testing.T) {
	chart := figureChart(&experiments.Figure{
		XLabel: "p", YLabel: "idle",
		Labels: []string{"v"}, X: []float64{1, 2, 3}, Y: map[string][]float64{"v": {0.1, 0.2, 0.4}},
	}, 40, 10)
	if !strings.Contains(chart, "idle vs p (ymax=0.400)") || !strings.Contains(chart, "*=v") {
		t.Fatalf("chart malformed:\n%s", chart)
	}
	if n := strings.Count(chart, "*"); n != 4 {
		t.Fatalf("chart has %d '*' glyphs, want 3 points and 1 legend entry:\n%s", n, chart)
	}
}
