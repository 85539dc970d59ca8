// Package stats provides the random processes and summary statistics used
// by the emulator: seeded RNG streams, truncated-normal and exponential
// draws for job runtimes and availability periods, lognormal runtime
// estimate errors, and small accumulators (mean, RMS).
//
// All randomness in an emulation flows through an *RNG derived from the
// scenario seed, so runs are reproducible bit-for-bit.
package stats

import (
	"encoding/json"
	"math"
	"math/rand"
)

// RNG is a deterministic random stream. Distinct model components should
// use distinct streams (see Fork) so adding draws to one component does
// not perturb another.
//
// A stream draws the same bits as rand.New(rand.NewSource(seed)), but
// holds only its seed until its first draw: most streams an emulation
// forks (a project's downtime channel, an always-on availability
// channel) never draw at all, and then cost one small struct. Most of
// the rest draw a few values, and a stream that draws no more than the
// source's short window never builds its 607-word state (see source).
type RNG struct {
	seed int64
	r    *rand.Rand // nil until the first draw
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{seed: seed}
}

// generator is a drawing stream's rand.Rand and the source it wraps,
// in one allocation: gen copies rand.New's result into it, and since
// rand.New is inlined that result never reaches the heap, so a first
// draw allocates once (TestForkedStreamAllocatesNoStateUntilDrawn).
type generator struct {
	r   rand.Rand
	src source
}

// gen returns the stream's generator, building it on the first draw.
func (g *RNG) gen() *rand.Rand {
	if g.r == nil {
		gn := new(generator)
		gn.src.Seed(g.seed)
		gn.r = *rand.New(&gn.src)
		g.r = &gn.r
	}
	return g.r
}

// Fork derives an independent child stream; the label keeps children
// with different purposes decorrelated even with equal parent state.
// It draws one value from g.
func (g *RNG) Fork(label string) *RNG {
	h := int64(14695981039346656037 & 0x7fffffffffffffff)
	for _, c := range label {
		h = (h ^ int64(c)) * 1099511628211
	}
	return NewRNG(g.gen().Int63() ^ h)
}

// Float64 returns a uniform draw in [0,1).
func (g *RNG) Float64() float64 { return g.gen().Float64() }

// Intn returns a uniform draw in [0,n).
func (g *RNG) Intn(n int) int { return g.gen().Intn(n) }

// Uniform returns a uniform draw in [lo,hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + float64((hi-lo)*g.gen().Float64())
}

// Normal returns a normal draw with the given mean and standard
// deviation.
func (g *RNG) Normal(mean, stdev float64) float64 {
	return mean + float64(stdev*g.gen().NormFloat64())
}

// TruncNormal returns a normal draw truncated (by resampling, then
// clamping) to [lo, hi]. The emulator uses it for job runtimes, which the
// paper models as normally distributed but which must stay positive.
func (g *RNG) TruncNormal(mean, stdev, lo, hi float64) float64 {
	if stdev <= 0 {
		return math.Min(hi, math.Max(lo, mean))
	}
	for i := 0; i < 8; i++ {
		x := g.Normal(mean, stdev)
		if x >= lo && x <= hi {
			return x
		}
	}
	return math.Min(hi, math.Max(lo, mean))
}

// Exp returns an exponential draw with the given mean. Used for
// availability on/off period lengths, per the paper's host model.
func (g *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.gen().ExpFloat64() * mean
}

// Lognormal returns exp(N(mu, sigma)). Runtime estimate errors are
// modelled as multiplicative lognormal factors with median exp(mu).
func (g *RNG) Lognormal(mu, sigma float64) float64 {
	return math.Exp(g.Normal(mu, sigma))
}

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.gen().Perm(n) }

// Mean is an online mean/variance accumulator. It keeps the exact sum
// and exact sum of squares of its samples as non-overlapping float64
// expansions (see exactsum.go), so the accumulated state is a pure
// function of the sample multiset: adding samples in any order, or
// splitting them across accumulators and merging, yields bit-identical
// Mean/Var/State results. That is the property the sharded population
// study relies on for shard-count-invariant output.
//
// A Mean holds internal slices; do not copy a Mean that is still being
// Added to (pass pointers, as every method already requires).
type Mean struct {
	n     int
	sum   []float64 // exact Σx as non-overlapping partials
	sumsq []float64 // exact Σx² as non-overlapping partials
}

// MeanState is the serializable form of a Mean accumulator: the count
// plus the canonical expansions of the exact sum and sum of squares.
// Canonical means the first component is the correctly-rounded total,
// the next the correctly-rounded remainder, and so on — a pure function
// of the exact sums, so two accumulators that saw the same samples in
// any order serialize byte-for-byte identically. JSON encodes float64
// in shortest round-trip form, so a state written to a checkpoint and
// read back reconstructs the accumulator bit-for-bit.
type MeanState struct {
	N     int       `json:"n"`
	Sum   []float64 `json:"sum,omitempty"`
	SumSq []float64 `json:"sumsq,omitempty"`
}

// State exports the accumulator for checkpointing, in canonical form.
func (m Mean) State() MeanState {
	return MeanState{
		N:     m.n,
		Sum:   canonicalPartials(m.sum),
		SumSq: canonicalPartials(m.sumsq),
	}
}

// MeanFromState reconstructs an accumulator from an exported state.
func MeanFromState(s MeanState) Mean {
	return Mean{
		n:     s.N,
		sum:   append([]float64(nil), s.Sum...),
		sumsq: append([]float64(nil), s.SumSq...),
	}
}

// Merge folds accumulator s into m, exactly: the result is
// bit-identical to a single accumulator that saw both sample sets, in
// any order. Merge is therefore associative and commutative.
func (s MeanState) Merge(o MeanState) MeanState {
	m := MeanFromState(s)
	other := MeanFromState(o)
	m.Merge(&other)
	return m.State()
}

// MarshalJSON encodes the accumulator as its canonical MeanState.
func (m Mean) MarshalJSON() ([]byte, error) { return json.Marshal(m.State()) }

// UnmarshalJSON decodes a MeanState back into the accumulator.
func (m *Mean) UnmarshalJSON(b []byte) error {
	var s MeanState
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	*m = MeanFromState(s)
	return nil
}

// Add folds a sample into the accumulator.
//
//bce:hotpath
func (m *Mean) Add(x float64) {
	m.n++
	m.sum = addPartial(m.sum, x)
	m.sumsq = addPartial(m.sumsq, x*x)
}

// Merge folds all samples seen by o into m, exactly (see the type
// comment). o is unchanged.
func (m *Mean) Merge(o *Mean) {
	m.n += o.n
	m.sum = mergePartials(m.sum, o.sum)
	m.sumsq = mergePartials(m.sumsq, o.sumsq)
}

// N returns the number of samples.
func (m *Mean) N() int { return m.n }

// Mean returns the sample mean (0 with no samples). The result is the
// correctly-rounded exact sum divided by n, so it does not depend on
// the order the samples arrived or on how accumulators were merged.
func (m *Mean) Mean() float64 {
	if m.n == 0 {
		return 0
	}
	return sumPartials(m.sum) / float64(m.n)
}

// Var returns the sample variance (0 with <2 samples), computed from
// the correctly-rounded exact sums as (Σx² − (Σx)²/n)/(n−1), clamped at
// zero. The exact sums make the result order-independent; the clamp
// absorbs the final-rounding wobble that can push a near-zero variance
// fractionally negative.
func (m *Mean) Var() float64 {
	if m.n < 2 {
		return 0
	}
	n := float64(m.n)
	sv := sumPartials(m.sum)
	qv := sumPartials(m.sumsq)
	v := (qv - float64(sv*(sv/n))) / (n - 1)
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	return v
}

// Stdev returns the sample standard deviation.
func (m *Mean) Stdev() float64 { return math.Sqrt(m.Var()) }

// CI95 returns the half-width of an approximate 95% confidence interval
// on the mean (normal approximation).
func (m *Mean) CI95() float64 {
	if m.n < 2 {
		return 0
	}
	return 1.96 * m.Stdev() / math.Sqrt(float64(m.n))
}

// RMS accumulates the root-mean-square of samples.
type RMS struct {
	n  int
	ss float64
}

// Add folds a sample into the accumulator.
func (r *RMS) Add(x float64) {
	r.n++
	r.ss += float64(x * x)
}

// Value returns sqrt(mean of squares) (0 with no samples).
func (r *RMS) Value() float64 {
	if r.n == 0 {
		return 0
	}
	return math.Sqrt(r.ss / float64(r.n))
}

// Clamp01 clamps x to [0,1]; figures of merit are defined on that range.
func Clamp01(x float64) float64 {
	switch {
	case math.IsNaN(x), x < 0:
		return 0
	case x > 1:
		return 1
	}
	return x
}
