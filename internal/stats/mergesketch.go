package stats

import "math"

// SketchAlpha is MergingSketch's relative accuracy α: quantile values
// are accurate to within 1% of the true sample value at the queried
// rank.
const SketchAlpha = 0.01

// sketchGamma is the bucket ratio γ = (1+α)/(1−α) and sketchLnGamma
// its logarithm, computed once in float64 arithmetic from α's float64
// value, not as exact constant expressions: the arithmetic that
// bucketed every sketch already written.
var (
	sketchGamma   = func(a float64) float64 { return (1 + a) / (1 - a) }(SketchAlpha)
	sketchLnGamma = math.Log(sketchGamma)
)

// Bucket indices are clamped to this symmetric range, which covers
// every normal positive float64 at α = 1% (|ln x|/ln γ <
// 35,500 for the full double exponent range); only subnormals and
// values beyond ~1e308 ever hit the clamp.
const sketchMaxIndex = 36000

// SketchBin is one log-spaced bucket of a MergingSketch: bucket key K
// holds N samples. Bins serialize in ascending-K order, so two sketches
// with the same bucket contents encode byte-for-byte identically.
type SketchBin struct {
	K int32 `json:"k"`
	N int64 `json:"n"`
}

// MergingSketch is a mergeable quantile sketch over float64 samples,
// built on log-spaced buckets (the DDSketch construction): a positive
// sample x lands in bucket ⌈ln(x)/ln γ⌉ with γ = (1+α)/(1−α), negative
// samples mirror into a second store, and zeros get their own counter.
// Every bucket boundary is a pure function of α, so merging two
// sketches is pointwise integer addition of bucket counts — exactly
// associative, commutative, and order-insensitive, which makes sharded
// population studies reproduce the single-process sketch bit-for-bit.
//
// Accuracy: Quantile(p) returns a value within relative error α of the
// sample at rank ⌈p·N⌉ of the sorted input (rank selection itself is
// exact — integer counts — so the error is purely the bucket's value
// resolution), except for samples clamped at the index range, where
// only ordering is preserved. Memory is one bin per occupied bucket:
// bounded by the spread of the data, not the sample count.
//
// The zero value is ready to use. All fields are exported only for
// JSON checkpointing; mutate through methods.
type MergingSketch struct {
	Count int64       `json:"count"`
	Zero  int64       `json:"zero,omitempty"`
	Pos   []SketchBin `json:"pos,omitempty"` // ascending K
	Neg   []SketchBin `json:"neg,omitempty"` // ascending K; bucket of |x|
	Min   float64     `json:"min"`           // exact smallest sample (0 when empty)
	Max   float64     `json:"max"`           // exact largest sample (0 when empty)
}

// key maps a positive magnitude to its bucket index.
func (s *MergingSketch) key(x float64) int32 {
	k := math.Ceil(math.Log(x) / sketchLnGamma)
	if k > sketchMaxIndex {
		return sketchMaxIndex
	}
	if k < -sketchMaxIndex {
		return -sketchMaxIndex
	}
	return int32(k)
}

// rep returns the representative magnitude of bucket k: the value whose
// relative distance to every point of the bucket (γ^(k−1), γ^k] is at
// most α.
func (s *MergingSketch) rep(k int32) float64 {
	return 2 * math.Pow(sketchGamma, float64(k)) / (sketchGamma + 1)
}

//bce:hotpath
func addBin(bins []SketchBin, k int32, n int64) []SketchBin {
	// Inlined binary search for the first bin with K >= k: sort.Search
	// takes its predicate as a closure, which costs an allocation per
	// sample on the sketch's hot path.
	i, hi := 0, len(bins)
	for i < hi {
		mid := int(uint(i+hi) >> 1)
		if bins[mid].K < k {
			i = mid + 1
		} else {
			hi = mid
		}
	}
	if i < len(bins) && bins[i].K == k {
		bins[i].N += n
		return bins
	}
	bins = append(bins, SketchBin{})
	copy(bins[i+1:], bins[i:])
	bins[i] = SketchBin{K: k, N: n}
	return bins
}

// Add folds one sample into the sketch. NaN samples are ignored;
// infinities are recorded at the clamped extreme bucket.
//
//bce:hotpath
func (s *MergingSketch) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	if s.Count == 0 || x < s.Min {
		s.Min = x
	}
	if s.Count == 0 || x > s.Max {
		s.Max = x
	}
	s.Count++
	switch {
	case x == 0:
		s.Zero++
	case x > 0:
		s.Pos = addBin(s.Pos, s.key(x), 1)
	default:
		s.Neg = addBin(s.Neg, s.key(-x), 1)
	}
}

// N returns the number of samples folded in.
func (s *MergingSketch) N() int64 { return s.Count }

// Merge folds every sample counted by o into s: pointwise bucket
// addition, so the result is bit-identical to a single sketch that saw
// both sample streams in any order.
func (s *MergingSketch) Merge(o *MergingSketch) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 {
		*s = MergingSketch{
			Count: o.Count,
			Zero:  o.Zero,
			Pos:   append([]SketchBin(nil), o.Pos...),
			Neg:   append([]SketchBin(nil), o.Neg...),
			Min:   o.Min,
			Max:   o.Max,
		}
		return
	}
	if o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
	s.Count += o.Count
	s.Zero += o.Zero
	for _, b := range o.Pos {
		s.Pos = addBin(s.Pos, b.K, b.N)
	}
	for _, b := range o.Neg {
		s.Neg = addBin(s.Neg, b.K, b.N)
	}
}

// Quantile returns an α-accurate estimate of the p-quantile: the
// representative value of the bucket holding the sample at nearest rank
// ⌈p·N⌉, clamped into [Min, Max] so the tails return the exact extreme
// samples. Returns 0 on an empty sketch; p is clamped to [0,1].
func (s *MergingSketch) Quantile(p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(p * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	// The extreme ranks are tracked exactly; return them directly so
	// q(0) and q(1) are the true min and max samples.
	if rank == 1 {
		return s.Min
	}
	if rank == s.Count {
		return s.Max
	}
	var v float64
	seen := int64(0)
	found := false
	// Ascending sample order: most-negative first (descending K in the
	// negative store), then zeros, then positives (ascending K).
	for i := len(s.Neg) - 1; i >= 0 && !found; i-- {
		seen += s.Neg[i].N
		if seen >= rank {
			v, found = -s.rep(s.Neg[i].K), true
		}
	}
	if !found {
		seen += s.Zero
		if seen >= rank {
			v, found = 0, true
		}
	}
	for i := 0; i < len(s.Pos) && !found; i++ {
		seen += s.Pos[i].N
		if seen >= rank {
			v, found = s.rep(s.Pos[i].K), true
		}
	}
	if !found {
		// Unreachable: bucket counts always sum to Count.
		v = s.Max
	}
	if v < s.Min {
		v = s.Min
	}
	if v > s.Max {
		v = s.Max
	}
	return v
}
