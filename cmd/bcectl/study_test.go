package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"bce/internal/client"
	"bce/internal/metrics"
	"bce/internal/population"
	"bce/internal/runner"
	"bce/internal/scenario"
)

// stubBatch fabricates deterministic per-cell metrics from the spec
// label, so checkpoint fixtures build in microseconds.
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

// finishedStudy writes a *completed* 6-scenario study checkpoint with
// the stub engine and returns its path, its bytes and the study flags
// that describe it. Resuming it runs zero batches, so a resumed case
// never touches the real emulation engine.
func finishedStudy(t *testing.T) (ck string, want []byte, same []string) {
	t.Helper()
	ck = filepath.Join(t.TempDir(), "ck.json")
	p := population.Params{
		Combos:         []population.Combo{{Sched: "JS-LOCAL", Fetch: "JF-ORIG"}, {Sched: "JS-WRR", Fetch: "JF-HYSTERESIS"}},
		Scenarios:      6,
		Seed:           42,
		BatchSize:      3,
		CheckpointPath: ck,
		RunBatch:       stubBatch,
		Population:     scenario.PopulationParams{DurationDays: 1},
	}
	if _, err := population.Run(context.Background(), p); err != nil {
		t.Fatalf("building checkpoint fixture: %v", err)
	}
	want, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	return ck, want, []string{"-checkpoint", ck, "-n", "6", "-seed", "42", "-days", "1", "-batch", "3",
		"-combos", "JS-LOCAL/JF-ORIG,JS-WRR/JF-HYSTERESIS"}
}

// TestStudyRerunResumesOrRefuses: a study rerun on its checkpoint
// resumes it when every population flag matches and -n covers the
// checkpoint's scenarios; any other rerun is refused with the
// difference named, and the checkpoint keeps its bytes.
func TestStudyRerunResumesOrRefuses(t *testing.T) {
	ck, want, same := finishedStudy(t)

	cases := []struct {
		name    string
		args    []string // appended to same; a later flag wins
		wantErr []string // substrings; empty means success
	}{
		{
			name:    "conflicting seed",
			args:    []string{"-seed", "7"},
			wantErr: []string{"refusing to resume", ck, "seed: checkpoint has 42, flags say 7"},
		},
		{
			name:    "shrunken n",
			args:    []string{"-n", "3"},
			wantErr: []string{"refusing to resume", ck, "covers 6 scenarios", "the 3 asked for"},
		},
		{
			name:    "conflicting days",
			args:    []string{"-days", "2"},
			wantErr: []string{"refusing to resume", ck, "days: checkpoint has 1, flags say 2"},
		},
		{
			name:    "conflicting combos",
			args:    []string{"-combos", "JS-LOCAL/JF-ORIG"},
			wantErr: []string{"refusing to resume", ck, "combos"},
		},
		{
			name: "same flags",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append(slices.Clip(same), tc.args...)
			err := runStudy(context.Background(), args, false, nil, nil)
			if len(tc.wantErr) == 0 {
				if err != nil {
					t.Fatalf("runStudy(%v) = %v, want success", args, err)
				}
			} else {
				if err == nil {
					t.Fatalf("runStudy(%v) succeeded, want refusal", args)
				}
				for _, want := range tc.wantErr {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("error %q missing %q", err, want)
					}
				}
			}
			if got, err := os.ReadFile(ck); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("runStudy(%v) changed the checkpoint (err %v)", args, err)
			}
		})
	}
}

// TestStudyCoordRefusesAnotherStudysCheckpoint: study-coord writes its
// merged study to -checkpoint only where a study rerun would resume
// it. A checkpoint of another seed, or of more scenarios than -n, is
// refused with its path named before -dir is made: the checkpoint keeps
// its bytes and no spec.json appears. The coordinator listens on a
// free port under a deadline, so a study-coord that skipped the check
// fails the test instead of serving forever.
func TestStudyCoordRefusesAnotherStudysCheckpoint(t *testing.T) {
	ck, want, same := finishedStudy(t)
	same = append(same, "-shards", "2", "-lease-secs", "1", "-addr", "127.0.0.1:0")

	for _, tc := range []struct {
		name    string
		args    []string // appended to same; a later flag wins
		wantErr []string
	}{
		{
			name:    "another seed",
			args:    []string{"-seed", "7"},
			wantErr: []string{"refusing to resume", ck, "seed: checkpoint has 42, flags say 7"},
		},
		{
			name:    "smaller n",
			args:    []string{"-n", "3"},
			wantErr: []string{"refusing to resume", ck, "covers 6 scenarios", "the 3 asked for"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "coord")
			args := append(append(slices.Clip(same), tc.args...), "-dir", dir)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			err := runStudyCoord(ctx, args, false, nil)
			if err == nil {
				t.Fatalf("runStudyCoord(%v) succeeded, want refusal", args)
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q missing %q", err, want)
				}
			}
			if got, err := os.ReadFile(ck); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("runStudyCoord(%v) changed the checkpoint (err %v)", args, err)
			}
			if _, err := os.Stat(filepath.Join(dir, "spec.json")); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("refused study-coord left %s/spec.json (stat err %v)", dir, err)
			}
		})
	}
}
