package population

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bce/internal/scenario"
	"bce/internal/stats"
)

// shardParams is stubParams for the shard [lo, lo+n).
func shardParams(lo, n int, ck string) Params {
	p := stubParams(n, ck)
	p.Lo = lo
	return p
}

// TestShardedMergeMatchesSingleFold is the tentpole property at the
// acceptance-criteria scale: split 10k scenarios into random contiguous
// shards, fold each shard in its own Study, merge the shards back in a
// shuffled order, and require the merged state to be bit-identical to
// the single-process fold.
func TestShardedMergeMatchesSingleFold(t *testing.T) {
	const n = 10_000
	whole, err := Run(context.Background(), stubParams(n, ""))
	if err != nil {
		t.Fatal(err)
	}
	want := studyJSON(t, whole)

	g := stats.NewRNG(1234)
	for trial := 0; trial < 3; trial++ {
		k := 2 + g.Intn(5)
		cuts := map[int]bool{}
		for len(cuts) < k-1 {
			cuts[1+g.Intn(n-1)] = true
		}
		pts := []int{0}
		for c := range cuts {
			pts = append(pts, c)
		}
		pts = append(pts, n)
		sortInts(pts)

		shards := make([]*Study, k)
		for i := 0; i < k; i++ {
			st, err := Run(context.Background(), shardParams(pts[i], pts[i+1]-pts[i], ""))
			if err != nil {
				t.Fatal(err)
			}
			shards[i] = st
		}
		// Shuffle: MergeStudies must not care about input order.
		for i := range shards {
			j := i + g.Intn(len(shards)-i)
			shards[i], shards[j] = shards[j], shards[i]
		}
		merged, err := MergeStudies(shards)
		if err != nil {
			t.Fatal(err)
		}
		if got := studyJSON(t, merged); got != want {
			t.Fatalf("trial %d (cuts %v): merged shards differ from single fold", trial, pts)
		}

		// Associativity: merge an adjacent pair first, then fold the
		// partial merge in with the rest — still bit-identical. (Partial
		// merges must cover a contiguous range, so nest over a sorted
		// copy.)
		if k >= 3 {
			byLo := append([]*Study(nil), shards...)
			for i := 1; i < len(byLo); i++ {
				for j := i; j > 0 && byLo[j].Lo < byLo[j-1].Lo; j-- {
					byLo[j], byLo[j-1] = byLo[j-1], byLo[j]
				}
			}
			head, err := MergeStudies(byLo[:2])
			if err != nil {
				t.Fatal(err)
			}
			nested, err := MergeStudies(append([]*Study{head}, byLo[2:]...))
			if err != nil {
				t.Fatal(err)
			}
			if got := studyJSON(t, nested); got != want {
				t.Fatalf("trial %d: nested merge differs from single fold", trial)
			}
		}
	}
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// A shard killed mid-range and resumed must equal the uninterrupted
// shard — the Lo-offset cursor arithmetic has to survive checkpoints.
func TestShardResumeEquivalence(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "shard.json")

	straight, err := Run(context.Background(), shardParams(3_000, 2_000, ""))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := shardParams(3_000, 2_000, ck)
	p.Progress = func(done, total int) {
		if done >= 1_000 {
			cancel()
		}
	}
	if _, err := Run(ctx, p); err == nil {
		t.Fatal("canceled run reported no error")
	}

	resumed, err := Run(context.Background(), shardParams(3_000, 2_000, ck))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Lo != 3_000 || resumed.Done != 2_000 {
		t.Fatalf("resumed shard at lo=%d done=%d, want lo=3000 done=2000", resumed.Lo, resumed.Done)
	}
	if studyJSON(t, straight) != studyJSON(t, resumed) {
		t.Fatal("resumed shard differs from uninterrupted shard")
	}
}

func TestMergeStudiesRejectsBadShards(t *testing.T) {
	run := func(lo, n int) *Study {
		st, err := Run(context.Background(), shardParams(lo, n, ""))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(0, 100), run(100, 100)

	if _, err := MergeStudies(nil); err == nil {
		t.Error("empty merge should fail")
	}

	gap := run(250, 50)
	if _, err := MergeStudies([]*Study{a, gap}); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Errorf("gap merge: got %v, want gap error", err)
	}

	overlap := run(50, 100)
	if _, err := MergeStudies([]*Study{a, overlap}); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("overlap merge: got %v, want overlap error", err)
	}

	incomplete, err := cloneStudy(b)
	if err != nil {
		t.Fatal(err)
	}
	incomplete.Done--
	if _, err := MergeStudies([]*Study{a, incomplete}); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Errorf("incomplete merge: got %v, want incomplete error", err)
	}

	otherSeed, err := cloneStudy(b)
	if err != nil {
		t.Fatal(err)
	}
	otherSeed.Seed = 7
	if _, err := MergeStudies([]*Study{a, otherSeed}); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Errorf("seed-mismatch merge: got %v, want seed error", err)
	}
}

// MergeStudies must not mutate its inputs: merging twice from the same
// shards gives the same answer.
func TestMergeStudiesPure(t *testing.T) {
	var shards []*Study
	for _, r := range [][2]int{{0, 300}, {300, 200}, {500, 500}} {
		st, err := Run(context.Background(), shardParams(r[0], r[1], ""))
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, st)
	}
	before := make([]string, len(shards))
	for i, st := range shards {
		before[i] = studyJSON(t, st)
	}
	m1, err := MergeStudies(shards)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := MergeStudies(shards)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range shards {
		if studyJSON(t, st) != before[i] {
			t.Errorf("merge mutated shard %d", i)
		}
	}
	if studyJSON(t, m1) != studyJSON(t, m2) {
		t.Error("repeat merge of the same shards diverged")
	}
}

func TestDiffParams(t *testing.T) {
	st, err := Run(context.Background(), stubParams(50, ""))
	if err != nil {
		t.Fatal(err)
	}

	if diffs := DiffParams(st, stubParams(50, "")); len(diffs) != 0 {
		t.Fatalf("identical params reported diffs: %v", diffs)
	}

	p := stubParams(50, "")
	p.Seed = 99
	p.Combos = []Combo{{"JS-LOCAL", "JF-ORIG"}}
	p.Population = scenario.PopulationParams{DurationDays: 3, MaxProjects: 9, GPUFraction: scenario.Frac(0.5)}
	p.Lo = 10
	diffs := DiffParams(st, p)
	want := []string{"seed", "combos", "days", "max-projects", "gpu-frac", "shard offset"}
	if len(diffs) != len(want) {
		t.Fatalf("got %d diffs (%v), want %d", len(diffs), diffs, len(want))
	}
	for i, f := range want {
		if diffs[i].Field != f {
			t.Errorf("diff %d: field %q, want %q", i, diffs[i].Field, f)
		}
		if diffs[i].String() == "" {
			t.Errorf("diff %d renders empty", i)
		}
	}
}

// Satellite bugfix regression: a failed rename must surface the error,
// leave any previous checkpoint untouched, and clean up the temp file.
func TestSaveCheckpointRenameError(t *testing.T) {
	dir := t.TempDir()
	st, err := Run(context.Background(), stubParams(10, ""))
	if err != nil {
		t.Fatal(err)
	}

	// Renaming a file over a non-empty directory fails on every
	// platform we run on.
	target := filepath.Join(dir, "ck.json")
	if err := os.MkdirAll(filepath.Join(target, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(target, st); err == nil {
		t.Fatal("rename onto a non-empty directory should fail")
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "ck.json" {
			t.Errorf("temp file %s left behind after failed rename", e.Name())
		}
	}
}

// The happy path must still fsync-and-swap: a save over an existing
// checkpoint replaces it atomically and loads back bit-identical.
func TestSaveCheckpointReplacesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	a, err := Run(context.Background(), stubParams(10, ""))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), stubParams(20, ""))
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(path, a); err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(path, b); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if studyJSON(t, got) != studyJSON(t, b) {
		t.Fatal("reloaded checkpoint differs from the last save")
	}
}
