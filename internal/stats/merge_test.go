package stats

import (
	"encoding/json"
	"math"
	"sort"
	"testing"
)

// randomSamples draws a mix of magnitudes nasty enough to defeat naive
// float summation: large and tiny values interleaved, signs mixed.
func randomSamples(g *RNG, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch g.Intn(4) {
		case 0:
			xs[i] = g.Uniform(-1, 1)
		case 1:
			xs[i] = g.Uniform(-1e9, 1e9)
		case 2:
			xs[i] = g.Uniform(-1e-9, 1e-9)
		default:
			xs[i] = g.Lognormal(0, 3)
		}
	}
	return xs
}

// splitPoints cuts [0,n) into k random contiguous parts.
func splitPoints(g *RNG, n, k int) []int {
	cuts := map[int]bool{}
	for len(cuts) < k-1 {
		cuts[1+g.Intn(n-1)] = true
	}
	pts := []int{0}
	for c := range cuts {
		pts = append(pts, c)
	}
	pts = append(pts, n)
	sort.Ints(pts)
	return pts
}

func meanJSON(t *testing.T, m *Mean) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// TestMeanMergeMatchesSingleFold is the core merge law: fold samples
// into one accumulator, versus splitting them into random contiguous
// shards, folding each shard separately, and merging the shards back in
// a random order and grouping. Everything must be bit-identical — the
// serialized state, the mean, and the variance.
func TestMeanMergeMatchesSingleFold(t *testing.T) {
	g := NewRNG(42)
	for trial := 0; trial < 50; trial++ {
		n := 50 + g.Intn(500)
		xs := randomSamples(g, n)

		var whole Mean
		for _, x := range xs {
			whole.Add(x)
		}
		want := meanJSON(t, &whole)

		k := 2 + g.Intn(7)
		pts := splitPoints(g, n, k)
		parts := make([]*Mean, k)
		for i := 0; i < k; i++ {
			parts[i] = &Mean{}
			for _, x := range xs[pts[i]:pts[i+1]] {
				parts[i].Add(x)
			}
		}
		// Merge in a random order with left-fold grouping; associativity
		// plus commutativity of the exact sums means any order must give
		// the same canonical state.
		perm := g.Perm(k)
		var merged Mean
		for _, pi := range perm {
			merged.Merge(parts[pi])
		}

		if got := meanJSON(t, &merged); got != want {
			t.Fatalf("trial %d (n=%d k=%d): merged state %s != whole state %s", trial, n, k, got, want)
		}
		if merged.Mean() != whole.Mean() || merged.Var() != whole.Var() {
			t.Fatalf("trial %d: merged mean/var (%v, %v) != whole (%v, %v)",
				trial, merged.Mean(), merged.Var(), whole.Mean(), whole.Var())
		}
	}
}

// TestMeanMergeAssociative checks (a⊔b)⊔c == a⊔(b⊔c) bitwise, via the
// exported MeanState.Merge.
func TestMeanMergeAssociative(t *testing.T) {
	g := NewRNG(7)
	for trial := 0; trial < 50; trial++ {
		states := make([]MeanState, 3)
		for i := range states {
			var m Mean
			for _, x := range randomSamples(g, 10+g.Intn(100)) {
				m.Add(x)
			}
			states[i] = m.State()
		}
		left := states[0].Merge(states[1]).Merge(states[2])
		right := states[0].Merge(states[1].Merge(states[2]))
		lb, _ := json.Marshal(left)
		rb, _ := json.Marshal(right)
		if string(lb) != string(rb) {
			t.Fatalf("trial %d: (a·b)·c = %s but a·(b·c) = %s", trial, lb, rb)
		}
	}
}

// TestMeanExactOnHostileSum: the exact-summation core must recover sums
// that plain left-to-right addition destroys.
// A Mean rebuilt from its JSON state continues exactly as the original.
func TestMeanStateRoundTrip(t *testing.T) {
	rng := NewRNG(5)
	var straight, front Mean
	for i := 0; i < 1000; i++ {
		x := rng.Normal(0, 1)
		straight.Add(x)
		front.Add(x)
	}
	blob, err := json.Marshal(front.State())
	if err != nil {
		t.Fatal(err)
	}
	var st MeanState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	back := MeanFromState(st)
	for i := 0; i < 1000; i++ {
		x := rng.Normal(2, 3)
		straight.Add(x)
		back.Add(x)
	}
	if back.Mean() != straight.Mean() || back.Var() != straight.Var() || back.N() != straight.N() {
		t.Fatalf("state round-trip diverged: %v/%v vs %v/%v",
			back.Mean(), back.Var(), straight.Mean(), straight.Var())
	}
}

func TestMeanExactOnHostileSum(t *testing.T) {
	var m Mean
	for _, x := range []float64{1e100, 1, -1e100, 1} {
		m.Add(x)
	}
	if got := sumPartials(m.sum); got != 2 {
		t.Fatalf("exact sum = %v, want 2", got)
	}
	if got := m.Mean(); got != 0.5 {
		t.Fatalf("mean = %v, want 0.5", got)
	}
}

func sketchJSON(t *testing.T, s *MergingSketch) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// TestSketchMergeMatchesSingleFold: same shard-split/merge law as the
// mean accumulator, for the quantile sketch. Bucket counts are
// integers, so the whole serialized sketch — and every quantile read
// from it — must be bit-identical however the samples were sharded.
func TestSketchMergeMatchesSingleFold(t *testing.T) {
	g := NewRNG(99)
	for trial := 0; trial < 30; trial++ {
		n := 50 + g.Intn(500)
		xs := randomSamples(g, n)

		whole := MergingSketch{}
		for _, x := range xs {
			whole.Add(x)
		}
		want := sketchJSON(t, &whole)

		k := 2 + g.Intn(7)
		pts := splitPoints(g, n, k)
		parts := make([]*MergingSketch, k)
		for i := 0; i < k; i++ {
			sk := MergingSketch{}
			for _, x := range xs[pts[i]:pts[i+1]] {
				sk.Add(x)
			}
			parts[i] = &sk
		}
		perm := g.Perm(k)
		merged := MergingSketch{}
		for _, pi := range perm {
			merged.Merge(parts[pi])
		}

		if got := sketchJSON(t, &merged); got != want {
			t.Fatalf("trial %d (n=%d k=%d): merged sketch %s != whole %s", trial, n, k, got, want)
		}
		for _, p := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.95, 1} {
			if merged.Quantile(p) != whole.Quantile(p) {
				t.Fatalf("trial %d: q(%v) merged %v != whole %v", trial, p, merged.Quantile(p), whole.Quantile(p))
			}
		}
	}
}

// TestSketchAccuracy: quantile estimates must be within the documented
// relative error alpha of the exact nearest-rank sample.
func TestSketchAccuracy(t *testing.T) {
	g := NewRNG(5)
	const n = 10000
	xs := make([]float64, n)
	sk := MergingSketch{}
	for i := range xs {
		// Positive, spread over several decades, like the day-scale
		// makespans and unit-scale fractions the study records.
		xs[i] = g.Lognormal(0, 2)
		sk.Add(xs[i])
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
		rank := int(math.Ceil(p * n))
		exact := sorted[rank-1]
		got := sk.Quantile(p)
		if rel := math.Abs(got-exact) / exact; rel > SketchAlpha+1e-9 {
			t.Errorf("q(%v): got %v, exact %v, relative error %v > %v", p, got, exact, rel, SketchAlpha)
		}
	}
	if sk.Quantile(0) != sorted[0] {
		t.Errorf("q(0) = %v, want exact min %v", sk.Quantile(0), sorted[0])
	}
	if sk.Quantile(1) != sorted[n-1] {
		t.Errorf("q(1) = %v, want exact max %v", sk.Quantile(1), sorted[n-1])
	}
}

// TestSketchZeroAndNegative: the zero bucket and mirrored negative
// store keep signed data exact in rank.
func TestSketchZeroAndNegative(t *testing.T) {
	sk := MergingSketch{}
	for _, x := range []float64{-4, -2, 0, 0, 1, 3} {
		sk.Add(x)
	}
	if got := sk.Quantile(0); got != -4 {
		t.Errorf("q(0) = %v, want -4", got)
	}
	if got := sk.Quantile(0.5); got != 0 {
		t.Errorf("q(0.5) = %v, want 0 (rank 3 of 6)", got)
	}
	if got := sk.Quantile(1); got != 3 {
		t.Errorf("q(1) = %v, want 3", got)
	}
	if q := sk.Quantile(0.3); q != -2 && (q > -2*(1-SketchAlpha) || q < -2*(1+SketchAlpha)) {
		t.Errorf("q(0.3) = %v, want within alpha of -2", q)
	}
}

// TestSketchMergeEmpty: merging with an empty sketch in either
// direction is the identity, and absorbing into an empty sketch is a
// deep copy — later additions to one side must not leak into the
// other through a shared bin slice.
func TestSketchMergeEmpty(t *testing.T) {
	full := MergingSketch{}
	for _, x := range []float64{-3, 0, 0.5, 7} {
		full.Add(x)
	}
	before, err := json.Marshal(&full)
	if err != nil {
		t.Fatal(err)
	}

	empty := MergingSketch{}
	full.Merge(&empty)
	if after, _ := json.Marshal(&full); string(after) != string(before) {
		t.Errorf("merge with empty changed the sketch:\n before %s\n after  %s", before, after)
	}

	empty.Merge(&full)
	if got, _ := json.Marshal(&empty); string(got) != string(before) {
		t.Errorf("empty.Merge(full) is not a faithful copy:\n want %s\n got  %s", before, got)
	}
	empty.Add(1e6)
	if after, _ := json.Marshal(&full); string(after) != string(before) {
		t.Errorf("mutating the copy leaked into the source:\n before %s\n after  %s", before, after)
	}
}

// TestSketchAllEqual: a degenerate one-bucket distribution — every
// quantile of N identical samples is that sample exactly, because the
// [Min, Max] clamp collapses the bucket's representative error.
func TestSketchAllEqual(t *testing.T) {
	sk := MergingSketch{}
	for i := 0; i < 1000; i++ {
		sk.Add(42)
	}
	if sk.N() != 1000 {
		t.Fatalf("N = %d, want 1000", sk.N())
	}
	for _, p := range []float64{0, 0.01, 0.25, 0.5, 0.99, 1} {
		if got := sk.Quantile(p); got != 42 {
			t.Errorf("q(%v) = %v, want exactly 42", p, got)
		}
	}
}

// TestSketchNegativeAndZeroOnly: a sample set with no positive mass
// exercises the mirrored store and zero counter on their own — the
// positive scan must contribute nothing.
func TestSketchNegativeAndZeroOnly(t *testing.T) {
	sk := MergingSketch{}
	for _, x := range []float64{-8, -4, -2, -1, 0, 0, 0} {
		sk.Add(x)
	}
	if got := sk.Quantile(0); got != -8 {
		t.Errorf("q(0) = %v, want exact min -8", got)
	}
	if got := sk.Quantile(1); got != 0 {
		t.Errorf("q(1) = %v, want exact max 0", got)
	}
	// Rank 4 of 7: the sample -1, accurate to alpha and sign-correct.
	if got := sk.Quantile(0.5); got >= 0 || math.Abs(got-(-1)) > SketchAlpha+1e-9 {
		t.Errorf("q(0.5) = %v, want within alpha of -1", got)
	}
	// Rank 6 of 7 lands in the zero bucket.
	if got := sk.Quantile(0.8); got != 0 {
		t.Errorf("q(0.8) = %v, want 0", got)
	}
}

// TestSketchMultiWayMergeExtremes: after folding several shards
// together, q(0) and q(1) are the exact global min and max — the
// tracked extremes must survive merging, not just single-stream Adds.
func TestSketchMultiWayMergeExtremes(t *testing.T) {
	g := NewRNG(11)
	var all []float64
	parts := make([]MergingSketch, 5)
	for i := range parts {
		for j := 0; j < 200; j++ {
			x := g.Uniform(-50, 50)
			parts[i].Add(x)
			all = append(all, x)
		}
	}
	merged := MergingSketch{}
	for i := range parts {
		merged.Merge(&parts[i])
	}
	sort.Float64s(all)
	if merged.N() != int64(len(all)) {
		t.Fatalf("N = %d, want %d", merged.N(), len(all))
	}
	if got := merged.Quantile(0); got != all[0] {
		t.Errorf("q(0) = %v, want exact min %v", got, all[0])
	}
	if got := merged.Quantile(1); got != all[len(all)-1] {
		t.Errorf("q(1) = %v, want exact max %v", got, all[len(all)-1])
	}
}

// TestCanonicalPartialsDeterministic: different partials lists
// representing the same exact value canonicalize identically.
func TestCanonicalPartialsDeterministic(t *testing.T) {
	g := NewRNG(3)
	for trial := 0; trial < 100; trial++ {
		xs := randomSamples(g, 40)
		var a, b []float64
		for _, x := range xs {
			a = addPartial(a, x)
		}
		perm := g.Perm(len(xs))
		for _, i := range perm {
			b = addPartial(b, xs[i])
		}
		ca, cb := canonicalPartials(a), canonicalPartials(b)
		if len(ca) != len(cb) {
			t.Fatalf("trial %d: canonical lengths differ: %v vs %v", trial, ca, cb)
		}
		for i := range ca {
			if math.Float64bits(ca[i]) != math.Float64bits(cb[i]) {
				t.Fatalf("trial %d: canonical forms differ: %v vs %v", trial, ca, cb)
			}
		}
	}
}
