package population

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"bce/internal/client"
	"bce/internal/runner"
	"bce/internal/scenario"
)

// A study member replays alone: scenario i of a study, written out and
// read back the way `scengen -out` and `bce FILE` do, reproduces the
// metrics the study folded for it, bit for bit. A one-scenario study's
// mean is that scenario's value.
func TestStudyMemberReplaysExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation-heavy")
	}
	combo := Combo{Sched: "JS-WRR", Fetch: "JF-HYSTERESIS"}
	pop := scenario.PopulationParams{DurationDays: 0.3}
	for _, i := range []int{0, 7, 41} {
		st, err := Run(context.Background(), Params{
			Seed: 9, Lo: i, Scenarios: 1, Combos: []Combo{combo}, Population: pop,
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Aggs[0].Failed != 0 {
			t.Fatalf("scenario %d: the study cell failed", i)
		}

		var buf bytes.Buffer
		if err := Scenario(9, i, pop).Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := scenario.Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		loaded.Policies.JobSched, loaded.Policies.JobFetch = combo.Sched, combo.Fetch
		cfg, err := loaded.Config()
		if err != nil {
			t.Fatal(err)
		}
		res, err := runner.Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}

		replay, nonzero := res.Metrics.Values(), false
		for m := 0; m < NumMetrics; m++ {
			if mean, _ := st.Mean(0, m); mean != replay[m] {
				t.Fatalf("scenario %d metric %d: study folded %v, replay reads %v", i, m, mean, replay[m])
			}
			nonzero = nonzero || replay[m] != 0
		}
		if !nonzero {
			t.Fatalf("scenario %d: every metric is zero, the check shows nothing", i)
		}
	}
}

// A shard [Lo, Lo+n) hands the engine exactly Scenario(seed, i, pop)
// under each combo, scenario-major: the cells a study folds are the
// population index's members and nothing else.
func TestShardCellsAreIndexMembers(t *testing.T) {
	const seed, lo, n = 42, 13, 7
	pop := scenario.PopulationParams{DurationDays: 0.1, MaxProjects: 3}
	combos := []Combo{{"JS-LOCAL", "JF-ORIG"}, {"JS-WRR", "JF-HYSTERESIS"}}
	var labels []string
	var cfgs []client.Config
	record := func(ctx context.Context, specs []runner.Spec, opts ...runner.Option) ([]runner.RunResult, error) {
		for _, sp := range specs {
			cfg, err := sp.Make()
			if err != nil {
				return nil, err
			}
			labels = append(labels, sp.Label)
			cfgs = append(cfgs, cfg)
		}
		return stubBatch(ctx, specs, opts...)
	}
	if _, err := Run(context.Background(), Params{
		Combos: combos, Scenarios: n, Lo: lo, Seed: seed, Population: pop,
		BatchSize: 3, RunBatch: record,
	}); err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != n*len(combos) {
		t.Fatalf("engine saw %d cells, want %d", len(cfgs), n*len(combos))
	}
	for k := range cfgs {
		i, combo := lo+k/len(combos), combos[k%len(combos)]
		if want := fmt.Sprintf("pop-%07d/%s", i, combo); labels[k] != want {
			t.Fatalf("cell %d labelled %q, want %q", k, labels[k], want)
		}
		s := Scenario(seed, i, pop)
		s.Policies.JobSched, s.Policies.JobFetch = combo.Sched, combo.Fetch
		want, err := s.Config()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cfgs[k], want) {
			t.Fatalf("cell %d (%s) is not Scenario(%d, %d, pop)", k, labels[k], seed, i)
		}
	}
}
