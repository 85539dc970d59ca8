package population

import (
	"context"
	"strings"
	"testing"

	"bce/internal/scenario"
)

// runStudy studies the combos (DefaultCombos when nil) over scenarios
// 0..n-1 of seed 9, half a day each.
func runStudy(t *testing.T, n int, combos []Combo) *Study {
	t.Helper()
	st, err := Run(context.Background(), Params{
		Combos:     combos,
		Scenarios:  n,
		Seed:       9,
		Population: scenario.PopulationParams{DurationDays: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestRunDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation-heavy")
	}
	st := runStudy(t, 4, nil)
	if len(st.Combos) != len(DefaultCombos()) || st.Done != 4 {
		t.Fatalf("study shape wrong: %d combos, %d scenarios", len(st.Combos), st.Done)
	}
	for c, combo := range st.Combos {
		if f := st.Aggs[c].Failed; f != 0 {
			t.Fatalf("%s: %d failed cells", combo, f)
		}
		for m := 0; m < NumMetrics; m++ {
			if mean, _ := st.Mean(c, m); mean < 0 || mean > 1 {
				t.Fatalf("%s metric %d mean %v out of range", combo, m, mean)
			}
		}
	}
}

// A study of no scenarios is no population.
func TestRunEmpty(t *testing.T) {
	if _, err := Run(context.Background(), Params{}); err == nil {
		t.Fatal("empty population accepted")
	}
}

func TestPairedWinsIdenticalCombosTie(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation-heavy")
	}
	combos := []Combo{
		{Sched: "JS-LOCAL", Fetch: "JF-HYSTERESIS"},
		{Sched: "JS-LOCAL", Fetch: "JF-HYSTERESIS"},
	}
	st := runStudy(t, 3, combos)
	if a, b, ties := st.PairedWins(0, 0, 1); a != 0 || b != 0 || ties != 3 {
		t.Fatalf("identical combos: wins %d/%d ties %d, want all ties", a, b, ties)
	}
}

// The paper's fetch-policy direction: JF-HYSTERESIS needs fewer
// scheduler RPCs per job (metric 4) than JF-ORIG on most scenarios.
func TestPairedWinsDirection(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation-heavy")
	}
	combos := []Combo{
		{Sched: "JS-LOCAL", Fetch: "JF-HYSTERESIS"},
		{Sched: "JS-LOCAL", Fetch: "JF-ORIG"},
	}
	st := runStudy(t, 6, combos)
	hystWins, origWins, ties := st.PairedWins(4, 0, 1)
	t.Logf("RPCs/job: hysteresis wins %d, orig wins %d, ties %d", hystWins, origWins, ties)
	if hystWins <= origWins {
		t.Fatalf("hysteresis RPC wins %d <= orig wins %d", hystWins, origWins)
	}
}

func TestTables(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation-heavy")
	}
	st := runStudy(t, 2, []Combo{
		{Sched: "JS-LOCAL", Fetch: "JF-HYSTERESIS"},
		{Sched: "JS-GLOBAL", Fetch: "JF-HYSTERESIS"},
	})
	table := st.Table()
	for _, want := range []string{"policy", "JS-LOCAL/JF-HYSTERESIS", "JS-GLOBAL/JF-HYSTERESIS", "±"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
	wins := st.WinsTable(0)
	if !strings.Contains(wins, "paired wins") || !strings.Contains(wins, "baseline") {
		t.Fatalf("wins table malformed:\n%s", wins)
	}
	if (&Study{Combos: []Combo{{Sched: "a", Fetch: "b"}}}).WinsTable(0) != "" {
		t.Fatal("single-combo wins table should be empty")
	}
}

func TestComboString(t *testing.T) {
	if (Combo{Sched: "JS-WRR", Fetch: "JF-ORIG"}).String() != "JS-WRR/JF-ORIG" {
		t.Fatal("combo formatting")
	}
}

// An unknown policy cannot configure any cell: every one is counted
// failed rather than aborting the study.
func TestBadComboFails(t *testing.T) {
	st := runStudy(t, 1, []Combo{{Sched: "JS-NOPE", Fetch: "JF-ORIG"}})
	if f := st.Aggs[0].Failed; f != 1 {
		t.Fatalf("unknown policy: %d failed cells, want 1", f)
	}
}
