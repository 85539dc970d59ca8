// Package harness is the emulator's controller (paper §4.3): it runs
// the emulator repeatedly — across policy variants, across seeds, and
// across parameter sweeps — and aggregates the figures of merit into
// tables and CSV.
package harness

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"

	"bce/internal/client"
	"bce/internal/metrics"
	"bce/internal/runner"
	"bce/internal/stats"
)

// Variant is one policy configuration under test. Make MUST build a
// fresh config on every call: configs hold live *host.Host pointers,
// and the runner engine executes seeds of one variant concurrently, so
// two runs sharing host or project state would race. Compare and Sweep
// reject variants whose Make returns an aliased *host.Host.
type Variant struct {
	Label string
	Make  func(seed int64) client.Config
}

// checkFresh enforces the Variant contract above: calling Make twice
// must yield distinct host objects. Catching aliasing here turns a
// data race into a deterministic error.
func checkFresh(v Variant, seed int64) error {
	a, b := v.Make(seed), v.Make(seed)
	if a.Host != nil && a.Host == b.Host {
		return fmt.Errorf("harness: variant %q: Make returns a shared *host.Host; "+
			"each call must build fresh state so runs can execute concurrently", v.Label)
	}
	return nil
}

// Agg aggregates the metrics of replicated runs.
type Agg struct {
	N      int
	Mean   [5]float64 // figures of merit, paper order
	CI95   [5]float64
	Raw    []metrics.Metrics
	Events uint64
}

// MetricByName returns the aggregated value for a metric name from
// metrics.Names.
func (a Agg) MetricByName(name string) float64 {
	for i, n := range metrics.Names() {
		if n == name {
			return a.Mean[i]
		}
	}
	return math.NaN()
}

// point is one x-value of a fan-out: its variants, and the prefix its
// run labels carry.
type point struct {
	prefix string
	vs     []Variant
}

// fanOut is the controller's one fan-out. It checks every variant at
// every point for fresh state, runs all (point, variant, seed) runs as
// one fail-fast batch so the worker pool stays saturated across
// boundaries, and folds each variant's seeds in seed order, so the
// aggregates are bit-identical for any worker count.
func fanOut(ctx context.Context, pts []point, seeds []int64, opts []runner.Option) ([]map[string]Agg, error) {
	var specs []runner.Spec
	for _, pt := range pts {
		for _, v := range pt.vs {
			if len(seeds) > 0 {
				if err := checkFresh(v, seeds[0]); err != nil {
					return nil, err
				}
			}
			for _, seed := range seeds {
				specs = append(specs, runner.Spec{
					Label: fmt.Sprintf("%s%s (seed %d)", pt.prefix, v.Label, seed),
					Make:  func() (client.Config, error) { return v.Make(seed), nil },
				})
			}
		}
	}
	results, err := runner.Batch(ctx, specs, append(opts, runner.WithFailFast(true))...)
	if err != nil {
		return nil, err
	}
	aggs := make([]map[string]Agg, len(pts))
	for pi, pt := range pts {
		aggs[pi] = make(map[string]Agg)
		for _, v := range pt.vs {
			aggs[pi][v.Label] = aggregate(results[:len(seeds)])
			results = results[len(seeds):]
		}
	}
	return aggs, nil
}

// aggregate folds completed runs, in batch order, into an Agg.
func aggregate(results []runner.RunResult) Agg {
	var agg Agg
	accs := make([]stats.Mean, 5)
	for _, r := range results {
		agg.Raw = append(agg.Raw, r.Result.Metrics)
		agg.Events += r.Result.Events
		for i, x := range r.Result.Metrics.Values() {
			accs[i].Add(x)
		}
	}
	agg.N = len(results)
	for i := range accs {
		agg.Mean[i] = accs[i].Mean()
		agg.CI95[i] = accs[i].CI95()
	}
	return agg
}

// Seeds returns n deterministic seeds.
func Seeds(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(1000 + 37*i)
	}
	return out
}

// Comparison holds the aggregated metrics of several variants.
type Comparison struct {
	Variants []string
	Aggs     map[string]Agg
}

// Compare replicates every variant over the same seeds under ctx: the
// fan-out at a single point.
func Compare(ctx context.Context, vs []Variant, seeds []int64, opts ...runner.Option) (*Comparison, error) {
	aggs, err := fanOut(ctx, []point{{vs: vs}}, seeds, opts)
	if err != nil {
		return nil, err
	}
	c := &Comparison{Aggs: aggs[0]}
	for _, v := range vs {
		c.Variants = append(c.Variants, v.Label)
	}
	return c, nil
}

// Table renders the comparison as an aligned text table, one row per
// variant, one column per figure of merit.
func (c *Comparison) Table() string {
	var b strings.Builder
	names := metrics.Names()
	fmt.Fprintf(&b, "%-16s", "policy")
	for _, n := range names {
		fmt.Fprintf(&b, " %15s", n)
	}
	b.WriteByte('\n')
	for _, label := range c.Variants {
		agg := c.Aggs[label]
		fmt.Fprintf(&b, "%-16s", label)
		for i := range names {
			fmt.Fprintf(&b, " %15s", fmt.Sprintf("%.4f±%.3f", agg.Mean[i], agg.CI95[i]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SweepPoint is one x-value of a parameter sweep with per-variant
// aggregates.
type SweepPoint struct {
	X    float64
	Aggs map[string]Agg
}

// SweepResult is a full parameter sweep.
type SweepResult struct {
	Param    string
	Variants []string
	Points   []SweepPoint
}

// Sweep runs every variant at every parameter value under ctx; mk
// builds the variants for one value, and each variant's Make receives
// the seed. Tables list the variants of the first value that has any.
func Sweep(ctx context.Context, param string, xs []float64, mk func(x float64) []Variant, seeds []int64, opts ...runner.Option) (*SweepResult, error) {
	pts := make([]point, len(xs))
	for i, x := range xs {
		pts[i] = point{prefix: fmt.Sprintf("%s=%v: ", param, x), vs: mk(x)}
	}
	aggs, err := fanOut(ctx, pts, seeds, opts)
	if err != nil {
		return nil, err
	}
	res := &SweepResult{Param: param}
	for i, x := range xs {
		if res.Variants == nil {
			for _, v := range pts[i].vs {
				res.Variants = append(res.Variants, v.Label)
			}
		}
		res.Points = append(res.Points, SweepPoint{X: x, Aggs: aggs[i]})
	}
	return res, nil
}

// Series extracts one metric's series for one variant.
func (s *SweepResult) Series(variant, metric string) (xs, ys []float64) {
	for _, pt := range s.Points {
		xs = append(xs, pt.X)
		ys = append(ys, pt.Aggs[variant].MetricByName(metric))
	}
	return xs, ys
}

// Table renders the sweep for one metric: rows are x values, columns
// variants.
func (s *SweepResult) Table(metric string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", s.Param)
	for _, v := range s.Variants {
		fmt.Fprintf(&b, " %14s", v)
	}
	fmt.Fprintf(&b, "   (%s)\n", metric)
	for _, pt := range s.Points {
		fmt.Fprintf(&b, "%-12.4g", pt.X)
		for _, v := range s.Variants {
			fmt.Fprintf(&b, " %14.4f", pt.Aggs[v].MetricByName(metric))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV writes the sweep for all metrics in long form:
// param,variant,metric,value.
func (s *SweepResult) CSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s,variant,metric,value\n", s.Param); err != nil {
		return err
	}
	names := metrics.Names()
	for _, pt := range s.Points {
		for _, v := range s.Variants {
			agg := pt.Aggs[v]
			for i, n := range names {
				if _, err := fmt.Fprintf(w, "%g,%s,%s,%g\n", pt.X, v, n, agg.Mean[i]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
