package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// edgeSeeds are the seeds math/rand's Seed normalizes specially: zero
// (replaced by 89482311, which is also listed), negatives, multiples
// of 2³¹−1 (which reduce to zero) and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 2, -2, 89482311, -89482311,
	int32max - 1, int32max, int32max + 1,
	-int32max + 1, -int32max, -int32max - 1,
	2 * int32max, -2 * int32max, 3*int32max + 5, 1 << 31, -1 << 31,
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
}

// testSeeds is edgeSeeds plus a few hundred derived seeds of both
// signs and every magnitude.
func testSeeds() []int64 {
	seeds := slices.Clone(edgeSeeds)
	r := rand.New(rand.NewSource(20110517))
	for i := 0; i < 300; i++ {
		s := int64(r.Uint64())
		if i%3 == 0 {
			s >>= uint(r.Intn(63))
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// drawCounts straddle the lazy path's boundaries: the 273 draws that
// seed both entries, the 334 after which every entry is seeded, and
// the 607-word wrap.
var drawCounts = []int{0, 1, 2, 272, 273, 274, 333, 334, 335, 606, 607, 608, 941, 1500}

// matchRaw compares n raw draws of s against ref, alternating Uint64
// and Int63 so both entry points are exercised.
func matchRaw(t *testing.T, seed int64, s *source, ref rand.Source64, n int) {
	t.Helper()
	for k := 1; k <= n; k++ {
		if k%2 == 0 {
			if got, want := s.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d: Int63 draw %d = %d, math/rand gives %d", seed, k, got, want)
			}
			continue
		}
		if got, want := s.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("seed %d: Uint64 draw %d = %d, math/rand gives %d", seed, k, got, want)
		}
	}
}

func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds() {
		matchRaw(t, seed, newSource(seed), rand.NewSource(seed).(rand.Source64), 3000)
	}
}

// A re-seed at any point of the stream, in or past the lazy window,
// restarts it exactly as math/rand's eager Seed does.
func TestSourceReseedMatchesMathRand(t *testing.T) {
	for _, seed := range edgeSeeds {
		for _, n := range drawCounts {
			s := newSource(seed)
			ref := rand.NewSource(seed).(rand.Source64)
			matchRaw(t, seed, s, ref, n)
			next := seed ^ 0x5deece66d
			s.Seed(next)
			ref.Seed(next)
			matchRaw(t, next, s, ref, 1300)
		}
	}
}

// The distributions rand.Rand builds on the source draw the same bits.
func TestSourceDistributionsMatchMathRand(t *testing.T) {
	for _, seed := range testSeeds() {
		got, want := rand.New(newSource(seed)), rand.New(rand.NewSource(seed))
		for k := 0; k < 700; k++ {
			if a, b := got.NormFloat64(), want.NormFloat64(); a != b {
				t.Fatalf("seed %d: NormFloat64 draw %d = %v, math/rand gives %v", seed, k, a, b)
			}
			if a, b := got.ExpFloat64(), want.ExpFloat64(); a != b {
				t.Fatalf("seed %d: ExpFloat64 draw %d = %v, math/rand gives %v", seed, k, a, b)
			}
			n := 1 + k%97
			if a, b := got.Intn(n), want.Intn(n); a != b {
				t.Fatalf("seed %d: Intn(%d) draw %d = %d, math/rand gives %d", seed, n, k, a, b)
			}
		}
		if a, b := got.Perm(50), want.Perm(50); !slices.Equal(a, b) {
			t.Fatalf("seed %d: Perm(50) = %v, math/rand gives %v", seed, a, b)
		}
	}
}

// refRNG is RNG as it was before the in-repo source: math/rand's own
// source, seeded eagerly, with Fork's label hash. Every RNG stream must
// draw exactly what it draws.
type refRNG struct{ r *rand.Rand }

func newRefRNG(seed int64) *refRNG { return &refRNG{r: rand.New(rand.NewSource(seed))} }

func (g *refRNG) Fork(label string) *refRNG {
	h := int64(14695981039346656037 & 0x7fffffffffffffff)
	for _, c := range label {
		h = (h ^ int64(c)) * 1099511628211
	}
	return newRefRNG(g.r.Int63() ^ h)
}

// Mixed operations over a growing tree of forked streams: each step
// picks a live stream and either draws from it (every RNG method) or
// forks it, so children are forked both before and after their
// parent's first draw, and some are never drawn from at all.
func TestRNGMatchesReferenceAcrossForkTrees(t *testing.T) {
	labels := []string{"server/a", "avail/compute", "downtime", "workgaps", ""}
	for _, seed := range edgeSeeds {
		ops := rand.New(rand.NewSource(seed ^ 0x2545f491))
		got, want := []*RNG{NewRNG(seed)}, []*refRNG{newRefRNG(seed)}
		for step := 0; step < 2000; step++ {
			i := ops.Intn(len(got))
			g, r := got[i], want[i]
			var a, b float64
			switch op := ops.Intn(10); op {
			case 0, 1:
				label := labels[ops.Intn(len(labels))]
				got = append(got, g.Fork(label))
				want = append(want, r.Fork(label))
				continue
			case 2:
				a, b = g.Float64(), r.r.Float64()
			case 3:
				n := 1 + ops.Intn(1000)
				a, b = float64(g.Intn(n)), float64(r.r.Intn(n))
			case 4:
				a, b = g.Uniform(-3, 9), -3+12*r.r.Float64()
			case 5:
				a, b = g.Normal(10, 2), 10+2*r.r.NormFloat64()
			case 6:
				a, b = g.Exp(3), r.r.ExpFloat64()*3
			case 7:
				a, b = g.Lognormal(0, 0.5), math.Exp(0.5*r.r.NormFloat64())
			case 8:
				a = g.TruncNormal(1, 4, 0.5, 1.5)
				b = math.Min(1.5, math.Max(0.5, 1))
				for k := 0; k < 8; k++ {
					if x := 1 + 4*r.r.NormFloat64(); x >= 0.5 && x <= 1.5 {
						b = x
						break
					}
				}
			case 9:
				n := ops.Intn(20)
				if pa, pb := g.Perm(n), r.r.Perm(n); !slices.Equal(pa, pb) {
					t.Fatalf("seed %d step %d: stream %d Perm(%d) = %v, reference %v", seed, step, i, n, pa, pb)
				}
				continue
			}
			if a != b {
				t.Fatalf("seed %d step %d: stream %d draws %v, reference %v", seed, step, i, a, b)
			}
		}
	}
}

// A forked stream that never draws holds no generator: the fork costs
// the child's small struct, not 607 words of state, while the first
// draw builds the generator (source and rand.Rand).
func TestForkedStreamAllocatesNoStateUntilDrawn(t *testing.T) {
	parent := NewRNG(1)
	var child *RNG
	if n := testing.AllocsPerRun(100, func() { child = parent.Fork("avail/compute") }); n != 1 {
		t.Fatalf("Fork allocates %v times, want 1 (the child struct)", n)
	}
	if child.r != nil {
		t.Fatal("a never-drawn fork holds a generator")
	}
	if n := testing.AllocsPerRun(100, func() { child = NewRNG(7) }); n != 1 {
		t.Fatalf("NewRNG allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		child = parent.Fork("avail/compute")
		child.Float64()
	}); n != 3 {
		t.Fatalf("Fork plus a first draw allocates %v times, want 3 (struct, source, rand.Rand)", n)
	}
}

// FuzzSourceMatchesMathRand checks n raw draws of the source against
// math/rand's for any seed, then a re-seed to the same seed mid-stream.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for i, seed := range edgeSeeds {
		f.Add(seed, uint16(drawCounts[i%len(drawCounts)]))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		s, ref := newSource(seed), rand.NewSource(seed).(rand.Source64)
		matchRaw(t, seed, s, ref, int(n))
		s.Seed(seed)
		ref.Seed(seed)
		matchRaw(t, seed, s, ref, 700)
	})
}
