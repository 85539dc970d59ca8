package main

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
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
			args := append(append([]string{"study"}, same...), tc.args...)
			code, _, stderr := bcectl(context.Background(), args...)
			if len(tc.wantErr) == 0 {
				if code != 0 {
					t.Fatalf("bcectl %v: exit %d, want success\n%s", args, code, stderr)
				}
			} else {
				if code != 1 {
					t.Fatalf("bcectl %v: exit %d, want refusal\n%s", args, code, stderr)
				}
				for _, want := range tc.wantErr {
					if !strings.Contains(stderr, want) {
						t.Errorf("stderr %q missing %q", stderr, want)
					}
				}
			}
			if got, err := os.ReadFile(ck); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("bcectl %v changed the checkpoint (err %v)", args, err)
			}
		})
	}
}

// TestStudyCoordRefusesAnotherStudysCheckpoint: study-coord writes its
// merged study to -checkpoint only where a study rerun would resume
// it. A checkpoint of another seed, or of more scenarios than -n, is
// refused with its path named before -dir is made, and so is one whose
// directory does not exist: the checkpoint keeps its bytes and no
// spec.json appears. The coordinator listens on a free port under a
// deadline, so a study-coord that skipped the check fails the test
// instead of serving forever.
func TestStudyCoordRefusesAnotherStudysCheckpoint(t *testing.T) {
	ck, want, same := finishedStudy(t)
	same = append(same, "-shards", "2", "-lease-secs", "1", "-addr", "127.0.0.1:0")
	missing := filepath.Join(t.TempDir(), "nodir", "x.json")

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
		{
			name:    "missing checkpoint dir",
			args:    []string{"-checkpoint", missing},
			wantErr: []string{"bcectl: cannot write -checkpoint " + missing, "no such file or directory"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "coord")
			args := append(append(append([]string{"study-coord"}, same...), tc.args...), "-dir", dir)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			code, _, stderr := bcectl(ctx, args...)
			if code != 1 {
				t.Fatalf("bcectl %v: exit %d, want refusal\n%s", args, code, stderr)
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(stderr, want) {
					t.Errorf("stderr %q missing %q", stderr, want)
				}
			}
			if got, err := os.ReadFile(ck); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("bcectl %v changed the checkpoint (err %v)", args, err)
			}
			if _, err := os.Stat(filepath.Join(dir, "spec.json")); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("refused study-coord left %s/spec.json (stat err %v)", dir, err)
			}
		})
	}
}

// TestStudyExtendedEqualsFresh runs the streaming study end to end:
// 30 tiny scenarios written to a checkpoint, the same command rerun
// with -n 60 to extend it, and a fresh 60-scenario run, whose
// checkpoint and tables the extended one must equal byte for byte. A
// rerun with another seed is refused and leaves the checkpoint's bytes
// as they were.
func TestStudyExtendedEqualsFresh(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "study-a.json"), filepath.Join(dir, "study-b.json")
	study := func(args ...string) []string {
		return append([]string{"study", "-days", "0.1", "-batch", "10"}, args...)
	}
	mustRun(t, study("-n", "30", "-checkpoint", a)...)
	outA := mustRun(t, study("-n", "60", "-checkpoint", a)...)
	outB := mustRun(t, study("-n", "60", "-checkpoint", b)...)
	ckA, errA := os.ReadFile(a)
	ckB, errB := os.ReadFile(b)
	if errA != nil || errB != nil || !bytes.Equal(ckA, ckB) {
		t.Fatalf("the extended checkpoint differs from the fresh one (errs %v, %v)", errA, errB)
	}
	if outA != outB {
		t.Fatalf("the extended study's tables differ from the fresh one's:\n%s\n---\n%s", outA, outB)
	}
	if code, _, _ := bcectl(context.Background(), study("-n", "60", "-seed", "2", "-checkpoint", a)...); code == 0 {
		t.Fatal("a rerun with another seed must be refused")
	}
	if got, err := os.ReadFile(a); err != nil || !bytes.Equal(got, ckA) {
		t.Fatalf("the refused rerun changed the checkpoint (err %v)", err)
	}
}

// TestStudyProgress: under -progress, study shows one meter, the
// scenarios it has folded. The runner's per-run meter, which restarts
// at 0 every batch, stays off it.
func TestStudyProgress(t *testing.T) {
	code, _, stderr := bcectl(context.Background(),
		"-workers", "2", "-progress", "study", "-n", "12", "-days", "0.02", "-seed", "9", "-batch", "4")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if strings.Contains(stderr, " runs (") {
		t.Errorf("study's -progress holds the runner's per-batch meter:\n%q", stderr)
	}
	if want := "study: 12/12 scenarios"; !strings.HasSuffix(strings.TrimRight(stderr, " \n"), want) {
		t.Errorf("study's -progress does not end with %q:\n%q", want, stderr)
	}
}

// syncBuffer is a bytes.Buffer that takes concurrent writes, as the
// stderr of study-coord, which logs from its HTTP handlers, must.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestStudyCoordExitsWithItsWorkers: a fresh study-coord at the default
// lease TTL stops once every worker it heard from has had its done
// reply, not a TTL later, and prints the tables of a plain study with
// the same flags. Coordinator and workers run in-process through run,
// the coordinator on a free loopback port under a deadline well below
// the TTL. The workers' -progress shows their shard meters only.
func TestStudyCoordExitsWithItsWorkers(t *testing.T) {
	pop := []string{"-n", "12", "-days", "0.02", "-seed", "9", "-batch", "4"}
	want := mustRun(t, append([]string{"study"}, pop...)...)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	type exit struct {
		code           int
		stdout, stderr string
		at             time.Time
	}
	start := func(args ...string) <-chan exit {
		ch := make(chan exit, 1)
		go func() {
			var stdout bytes.Buffer
			var stderr syncBuffer
			code := run(ctx, args, &stdout, &stderr)
			ch <- exit{code, stdout.String(), stderr.String(), time.Now()}
		}()
		return ch
	}
	coord := start(append(append([]string{"study-coord"}, pop...),
		"-shards", "2", "-addr", addr, "-dir", filepath.Join(dir, "coord"))...)
	poll(10*time.Second, 10*time.Millisecond, func() bool {
		resp, err := http.Get("http://" + addr + "/v1/status")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return true
	})
	var workers []<-chan exit
	for _, name := range []string{"w1", "w2"} {
		workers = append(workers, start("-workers", "1", "-progress", "study-worker", "-coord", "http://"+addr,
			"-name", name, "-dir", filepath.Join(dir, name)))
	}
	var last time.Time
	for i, ch := range workers {
		w := <-ch
		if w.code != 0 {
			t.Fatalf("worker %d: exit %d\n%s", i+1, w.code, w.stderr)
		}
		if strings.Contains(w.stderr, " runs (") {
			t.Errorf("worker %d's -progress holds the runner's per-batch meter:\n%s", i+1, w.stderr)
		}
		if w.at.After(last) {
			last = w.at
		}
	}
	c := <-coord
	if c.code != 0 {
		t.Fatalf("study-coord: exit %d\n%s", c.code, c.stderr)
	}
	if gap := c.at.Sub(last); gap > 5*time.Second {
		t.Fatalf("study-coord returned %v after its last worker; want within a few seconds\n%s", gap, c.stderr)
	}
	if c.stdout != want {
		t.Fatalf("study-coord's tables differ from a plain study's:\n%s\n---\n%s", c.stdout, want)
	}
}
