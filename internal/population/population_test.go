package population

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bce/internal/client"
	"bce/internal/metrics"
	"bce/internal/runner"
	"bce/internal/scenario"
)

// stubBatch fabricates deterministic per-cell metrics from the spec
// label (no emulation), so checkpoint/resume mechanics can be tested at
// the 10k-scenario scale the acceptance criteria name in milliseconds.
func stubBatch(ctx context.Context, specs []runner.Spec, opts ...runner.Option) ([]runner.RunResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	results := make([]runner.RunResult, len(specs))
	for i, sp := range specs {
		h := uint64(14695981039346656037)
		for _, c := range []byte(sp.Label) {
			h = (h ^ uint64(c)) * 1099511628211
		}
		var m metrics.Metrics
		m.IdleFraction = float64(h%1000) / 1000
		m.WastedFraction = float64((h>>10)%1000) / 1000
		m.ShareViolation = float64((h>>20)%1000) / 1000
		m.Monotony = float64((h>>30)%1000) / 1000
		m.RPCsPerJob = float64((h>>40)%1000) / 1000
		results[i] = runner.RunResult{Index: i, Label: sp.Label, Result: &client.Result{Metrics: m}}
	}
	return results, nil
}

func stubParams(n int, ck string) Params {
	return Params{
		Combos:         []Combo{{"JS-LOCAL", "JF-ORIG"}, {"JS-GLOBAL", "JF-HYSTERESIS"}, {"JS-WRR", "JF-HYSTERESIS"}},
		Scenarios:      n,
		Seed:           42,
		BatchSize:      128,
		CheckpointPath: ck,
		RunBatch:       stubBatch,
	}
}

func studyJSON(t *testing.T, st *Study) string {
	t.Helper()
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// The acceptance-criteria scale: 10k scenarios straight vs. killed at
// ~5k and resumed; the aggregate states must be bit-identical.
func TestResumeEquivalence10k(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck.json")

	straight, err := Run(context.Background(), stubParams(10_000, ""))
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel once 5k scenarios are folded. The cancel
	// lands between batches, like a SIGINT through runner.Batch.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := stubParams(10_000, ck)
	p.Progress = func(done, total int) {
		if done >= 5_000 {
			cancel()
		}
	}
	partial, err := Run(ctx, p)
	if err == nil {
		t.Fatal("canceled run reported no error")
	}
	if partial.Done >= 10_000 || partial.Done < 5_000 {
		t.Fatalf("interrupted at %d scenarios, want within [5000,10000)", partial.Done)
	}

	resumed, err := Run(context.Background(), stubParams(10_000, ck))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Done != 10_000 || resumed.Target != 10_000 {
		t.Fatalf("resume finished at %d/%d, want 10000/10000", resumed.Done, resumed.Target)
	}
	if a, b := studyJSON(t, straight), studyJSON(t, resumed); a != b {
		t.Fatal("resumed aggregates are not bit-identical to the uninterrupted run")
	}
}

// Rerunning a finished study folds nothing and leaves its checkpoint
// as it was; a larger count extends it, and the result matches running
// the larger study from scratch.
func TestResumeExtendsTarget(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck.json")
	if _, err := Run(context.Background(), stubParams(3_000, ck)); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(ck)
	if err != nil {
		t.Fatal(err)
	}
	rerun := stubParams(3_000, ck)
	rerun.RunBatch = func(context.Context, []runner.Spec, ...runner.Option) ([]runner.RunResult, error) {
		t.Error("a rerun of a finished study folded a batch")
		return nil, errors.New("unexpected batch")
	}
	if _, err := Run(context.Background(), rerun); err != nil {
		t.Fatalf("rerun of the finished study: %v", err)
	}
	// SaveCheckpoint renames a new file into place, so a rewrite, even
	// of the same bytes, is a different file.
	if after, err := os.Stat(ck); err != nil || !os.SameFile(before, after) {
		t.Fatalf("rerun of the finished study rewrote its checkpoint (err %v)", err)
	}
	extended, err := Run(context.Background(), stubParams(9_000, ck))
	if err != nil {
		t.Fatal(err)
	}
	straight, err := Run(context.Background(), stubParams(9_000, ""))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := studyJSON(t, straight), studyJSON(t, extended); a != b {
		t.Fatal("extended study diverged from a straight run")
	}
}

// Resume is insensitive to batch size: fold order is scenario order,
// not batch structure.
func TestResumeDifferentBatchSize(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck.json")
	p := stubParams(2_500, ck)
	p.BatchSize = 97
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.Progress = func(done, total int) {
		if done >= 1_000 {
			cancel()
		}
	}
	if _, err := Run(ctx, p); err == nil {
		t.Fatal("canceled run reported no error")
	}
	p = stubParams(2_500, ck)
	p.BatchSize = 31
	resumed, err := Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	straight, err := Run(context.Background(), stubParams(2_500, ""))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := studyJSON(t, straight), studyJSON(t, resumed); a != b {
		t.Fatal("batch-size change broke resume equivalence")
	}
}

// The streaming path must not retain per-scenario values: the
// aggregate state (= checkpoint size) stays bounded as the scenario
// count grows 10x. The quantile sketches add one bin per occupied
// log-bucket, so the state creeps up sub-linearly as more buckets see
// their first sample — allow that, but reject anything resembling
// per-scenario growth (10x scenarios must stay far under 2x bytes).
func TestAggregateStateSizeIndependentOfN(t *testing.T) {
	small, err := Run(context.Background(), stubParams(500, ""))
	if err != nil {
		t.Fatal(err)
	}
	large, err := Run(context.Background(), stubParams(5_000, ""))
	if err != nil {
		t.Fatal(err)
	}
	a, b := len(studyJSON(t, small)), len(studyJSON(t, large))
	if b > a+a/2 {
		t.Fatalf("aggregate state grew with N: %d bytes at 500, %d at 5000", a, b)
	}
}

func TestPairedWinsSymmetry(t *testing.T) {
	st, err := Run(context.Background(), stubParams(200, ""))
	if err != nil {
		t.Fatal(err)
	}
	aw, bw, ties := st.PairedWins(0, 0, 1)
	bw2, aw2, ties2 := st.PairedWins(0, 1, 0)
	if aw != aw2 || bw != bw2 || ties != ties2 {
		t.Fatalf("PairedWins not symmetric: %d/%d/%d vs %d/%d/%d", aw, bw, ties, aw2, bw2, ties2)
	}
	if aw+bw+ties != 200 {
		t.Fatalf("pair outcomes sum to %d, want 200", aw+bw+ties)
	}
	if _, _, self := st.PairedWins(0, 1, 1); self != 200 {
		t.Fatalf("self-pair ties = %d, want 200", self)
	}
}

func TestLoadCheckpointRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(bad); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
	if err := os.WriteFile(bad, []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(bad); err == nil {
		t.Fatal("wrong-version checkpoint accepted")
	}
	if err := os.WriteFile(bad, []byte(`{"version":1,"combos":[{"sched":"a","fetch":"b"}],"aggs":[{}],"pairs":[],"target":5,"done":9}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(bad); err == nil {
		t.Fatal("done > target checkpoint accepted")
	}
	if _, err := LoadCheckpoint(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing checkpoint accepted")
	}
}

func TestRunRejectsZeroScenarios(t *testing.T) {
	st, err := Run(context.Background(), Params{RunBatch: stubBatch})
	if err == nil || st != nil {
		t.Fatalf("zero-scenario study accepted: %v, %v", st, err)
	}
	if !strings.Contains(err.Error(), "no scenarios") {
		t.Errorf("error %q does not contain %q", err, "no scenarios")
	}
}

// TestRunRefuses covers every study Run refuses to fold. A refused
// checkpoint is left as it was, not rewritten.
func TestRunRefuses(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck.json")
	if _, err := Run(context.Background(), stubParams(50, ck)); err != nil {
		t.Fatal(err)
	}
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	otherSeed := stubParams(50, ck)
	otherSeed.Seed = 43
	for _, tc := range []struct {
		name string
		p    Params
		want []string // substrings of the error
	}{
		{"negative shard offset", shardParams(-1, 10, ""), []string{"negative shard offset -1"}},
		{"checkpoint of another seed", otherSeed, []string{ck, "disagrees", "seed: checkpoint has 42, flags say 43"}},
		{"checkpoint of more scenarios", stubParams(40, ck), []string{ck, "covers 50 scenarios", "the 40 asked for"}},
		{"checkpoint that will not load", stubParams(50, garbage), []string{garbage}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before os.FileInfo
			if tc.p.CheckpointPath != "" {
				var err error
				if before, err = os.Stat(tc.p.CheckpointPath); err != nil {
					t.Fatal(err)
				}
			}
			st, err := Run(context.Background(), tc.p)
			if err == nil || st != nil {
				t.Fatalf("study accepted: %v, %v", st, err)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not contain %q", err, want)
				}
			}
			if tc.p.CheckpointPath != "" {
				if after, err := os.Stat(tc.p.CheckpointPath); err != nil || !os.SameFile(before, after) || !after.ModTime().Equal(before.ModTime()) {
					t.Fatalf("the refusal rewrote %s (err %v)", tc.p.CheckpointPath, err)
				}
			}
		})
	}
}

// realParams is a small real-emulation study: tiny scenarios, two
// combos, so the whole test stays in the hundreds of milliseconds.
func realParams(n int, ck string) Params {
	return Params{
		Combos:    []Combo{{"JS-LOCAL", "JF-HYSTERESIS"}, {"JS-GLOBAL", "JF-ORIG"}},
		Scenarios: n,
		Seed:      7,
		Population: scenario.PopulationParams{
			DurationDays: 0.2,
			MaxProjects:  3,
			GPUFraction:  scenario.Frac(0.2),
		},
		BatchSize:      4,
		CheckpointPath: ck,
	}
}

// End-to-end: a real (emulating) study killed mid-run and resumed must
// match the uninterrupted run bit-for-bit.
func TestRealResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation-heavy")
	}
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck.json")

	straight, err := Run(context.Background(), realParams(12, ""))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := realParams(12, ck)
	p.Progress = func(done, total int) {
		if done >= 6 {
			cancel()
		}
	}
	if _, err := Run(ctx, p); err == nil {
		t.Fatal("canceled run reported no error")
	}
	st, err := LoadCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done < 6 || st.Done >= 12 {
		t.Fatalf("checkpoint at %d scenarios, want within [6,12)", st.Done)
	}
	resumed, err := Run(context.Background(), realParams(12, ck))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := studyJSON(t, straight), studyJSON(t, resumed); a != b {
		t.Fatal("real resumed aggregates are not bit-identical to the uninterrupted run")
	}
}

// The aggregates are identical for any worker count: results are folded
// in scenario order regardless of completion order.
func TestWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation-heavy")
	}
	one, err := Run(context.Background(), realParams(8, ""), runner.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	many, err := Run(context.Background(), realParams(8, ""), runner.WithWorkers(7))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := studyJSON(t, one), studyJSON(t, many); a != b {
		t.Fatal("worker count changed the aggregates")
	}
}

// A canceled run surfaces a context error the caller can test with
// errors.Is, and still returns the partial study.
func TestCancelReturnsPartialStudy(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := Run(ctx, stubParams(100, ""))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st == nil || st.Done != 0 {
		t.Fatalf("partial study = %+v", st)
	}
}
