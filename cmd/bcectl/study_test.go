package main

import (
	"bytes"
	"context"
	"fmt"
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

// TestStudyRerunResumesOrRefuses: a study rerun on its checkpoint
// resumes it when every population flag matches and -n covers the
// checkpoint's scenarios; any other rerun is refused with the
// difference named, and the checkpoint keeps its bytes.
func TestStudyRerunResumesOrRefuses(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")
	// A *completed* 6-scenario study: resuming it runs zero batches, so
	// the resumed case below never touches the real emulation engine.
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
	same := []string{"-checkpoint", ck, "-n", "6", "-seed", "42", "-days", "1", "-batch", "3",
		"-combos", "JS-LOCAL/JF-ORIG,JS-WRR/JF-HYSTERESIS"}

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
			err := runStudy(context.Background(), args, false, 1, nil, nil)
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

// TestStudyShardsNeedsCheckpoint pins the -shards precondition.
func TestStudyShardsNeedsCheckpoint(t *testing.T) {
	err := runStudy(context.Background(), []string{"-n", "10", "-shards", "2"}, false, 1, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "-checkpoint") {
		t.Fatalf("sharded study without -checkpoint: err = %v, want a -checkpoint complaint", err)
	}
}

// TestStudyShardsBitIdentical runs `study -shards 3` in this process
// and requires its merged checkpoint to equal the unsharded command's
// byte for byte. A rerun of the finished study resumes every shard from
// its own checkpoint, so it reports at once, with the same bytes.
func TestStudyShardsBitIdentical(t *testing.T) {
	dir := t.TempDir()
	flags := []string{"-n", "12", "-days", "0.02", "-seed", "5", "-batch", "4"}
	study := func(ck string, extra ...string) []byte {
		t.Helper()
		args := append(append(slices.Clip(flags), "-checkpoint", ck), extra...)
		if err := runStudy(context.Background(), args, false, 2, nil, nil); err != nil {
			t.Fatalf("study %v: %v", args, err)
		}
		b, err := os.ReadFile(ck)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := study(filepath.Join(dir, "ref.json"))
	sharded := filepath.Join(dir, "sharded.json")
	if got := study(sharded, "-shards", "3"); !bytes.Equal(got, want) {
		t.Fatal("sharded checkpoint differs from the unsharded one")
	}
	start := time.Now()
	got := study(sharded, "-shards", "3")
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("rerun of the finished sharded study took %v, want under 5s", d)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("rerun's checkpoint differs from the unsharded one")
	}
}

// TestStudyShardsProgressPrintsStudyTotal runs `-progress study -shards
// 3` with the command's per-batch printer installed, as main installs
// it, and captures stderr. The shard batches must not print their own
// run counters; after every shard batch the study's total is printed,
// never falling, and the last total reads every scenario done. The
// per-shard lines stay.
func TestStudyShardsProgressPrintsStudyTotal(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stderr := os.Stderr
	os.Stderr = f
	defer func() { os.Stderr = stderr }()
	args := []string{"-n", "12", "-days", "0.02", "-seed", "5", "-batch", "2", "-shards", "3",
		"-checkpoint", filepath.Join(dir, "ck.json")}
	opts := []runner.Option{runner.WithOptions(runner.Options{Workers: 3, Progress: printProgress})}
	if err := runStudy(context.Background(), args, true, 3, nil, opts); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}

	var totals []int
	shardLines := 0
	for _, line := range strings.Split(string(out), "\n") {
		if strings.Contains(line, " runs (") {
			t.Fatalf("a shard batch printed its own run counter: %q", line)
		}
		var done, total int
		if _, err := fmt.Sscanf(line, "study: %d/%d scenarios", &done, &total); err == nil {
			if total != 12 {
				t.Fatalf("study total line %q, want a total of 12", line)
			}
			if n := len(totals); n > 0 && done < totals[n-1] {
				t.Fatalf("study total fell from %d to %d", totals[n-1], done)
			}
			totals = append(totals, done)
		}
		if strings.HasPrefix(line, "shard-worker-") && strings.HasSuffix(line, " scenarios") {
			shardLines++
		}
	}
	if len(totals) == 0 || totals[len(totals)-1] != 12 {
		t.Fatalf("study totals %v, want them to end at 12; stderr:\n%s", totals, out)
	}
	if shardLines != len(totals) {
		t.Fatalf("%d per-shard lines and %d study totals, want one total after each shard batch; stderr:\n%s", shardLines, len(totals), out)
	}
}
