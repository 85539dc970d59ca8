// Package population is the streaming Monte-Carlo study engine — the
// paper's §6.2 direction ("characterize the actual population of
// scenarios, and develop a system, perhaps based on Monte-Carlo
// sampling, to study policies over the entire population") built to the
// ROADMAP's scale: millions of scenarios, bounded memory.
//
// Scenarios are sampled on the fly (scenario i is always
// Scenario(seed, i, pop), so the population is a pure function of the
// base seed), sharded across the runner worker pool in
// bounded batches of (combo, scenario) cells, and folded into online
// aggregates: an exact-sum mean/variance accumulator and a mergeable
// log-bucket quantile sketch per (combo, figure of merit), plus paired
// per-scenario win/loss counts for every combo pair. Memory is
// O(combos), not O(scenarios) — nothing per-scenario is retained.
//
// Determinism: every cell's result is a pure function of (seed, i,
// combo), and the aggregates are pure functions of the folded sample
// multiset (exact sums and integer bucket counts, see internal/stats),
// so the final aggregates are bit-identical for any worker count, any
// batch size — and, via MergeStudies, any sharding of the scenario
// range across processes. Checkpoints serialize the exact aggregate
// state (Go's JSON float64 encoding round-trips exactly), so a run
// killed at a batch boundary and resumed reports aggregates
// bit-identical to an uninterrupted run.
//
// Sharding: a Study may cover a sub-range [Lo, Lo+Target) of a larger
// population; shards of the same population (same seed, combos,
// params) covering contiguous, non-overlapping ranges merge with
// MergeStudies into the state a single process would have produced.
//
// Concurrency: this package is single-goroutine by design and owns no
// locks — parallelism lives entirely in runner.Batch, and every fold
// into the aggregates happens on the caller's goroutine after the
// batch returns. There are therefore no //bce:guardedby annotations
// here: no field is ever shared between goroutines (the concurrency
// analyzers, DESIGN.md §10.2, verify the absence of go statements and
// sync primitives rather than a locking discipline).
package population

import (
	"context"
	"fmt"

	"bce/internal/client"
	"bce/internal/runner"
	"bce/internal/scenario"
	"bce/internal/stats"
)

// Combo is one policy combination under study.
type Combo struct {
	Sched string `json:"sched"` // "JS-LOCAL", "JS-GLOBAL", "JS-WRR", "JS-LLF"
	Fetch string `json:"fetch"` // "JF-ORIG", "JF-HYSTERESIS", "JF-SPREAD"
}

// String returns "sched/fetch".
func (c Combo) String() string { return c.Sched + "/" + c.Fetch }

// DefaultCombos is the policy matrix the paper's variants span.
func DefaultCombos() []Combo {
	return []Combo{
		{"JS-LOCAL", "JF-ORIG"},
		{"JS-LOCAL", "JF-HYSTERESIS"},
		{"JS-GLOBAL", "JF-ORIG"},
		{"JS-GLOBAL", "JF-HYSTERESIS"},
		{"JS-WRR", "JF-HYSTERESIS"},
	}
}

// NumMetrics is the number of figures of merit folded per cell.
const NumMetrics = 5

// Params configures a streaming population study.
type Params struct {
	// Combos is the policy matrix (DefaultCombos when empty).
	Combos []Combo
	// Scenarios is the number of scenarios to evaluate in this run.
	Scenarios int
	// Lo is the index of the first scenario; the run covers
	// [Lo, Lo+Scenarios). Nonzero only for shards of a larger study.
	Lo int
	// Seed is the base seed: the run studies Scenario(Seed, i,
	// Population) for each i, independent of batching and workers.
	Seed int64
	// Population tunes the scenario sampler.
	Population scenario.PopulationParams
	// BatchSize bounds how many scenarios are in flight at once; the
	// engine holds BatchSize×len(Combos) results at peak (default 64).
	BatchSize int
	// CheckpointPath, when nonempty, receives an atomically written
	// JSON checkpoint every CheckpointEvery batches and on
	// cancellation, enabling bit-identical resume.
	CheckpointPath string
	// CheckpointEvery is the number of batches between checkpoint
	// writes (default 1).
	CheckpointEvery int

	// Progress, when set, is called after every folded batch with the
	// number of scenarios completed and the target.
	Progress func(done, total int)

	// RunBatch substitutes the execution engine; nil means
	// runner.Batch. The population and fabric tests inject
	// deterministic stub engines through it, and e2ebench wraps
	// runner.Batch in it to trace each batch.
	RunBatch func(ctx context.Context, specs []runner.Spec, opts ...runner.Option) ([]runner.RunResult, error)
}

func (p Params) withDefaults() Params {
	if len(p.Combos) == 0 {
		p.Combos = DefaultCombos()
	}
	if p.BatchSize <= 0 {
		p.BatchSize = 64
	}
	if p.CheckpointEvery <= 0 {
		p.CheckpointEvery = 1
	}
	if p.RunBatch == nil {
		p.RunBatch = runner.Batch
	}
	return p
}

// ComboAgg is the online aggregate state for one combo: an exact-sum
// mean/variance accumulator and a mergeable quantile sketch per figure
// of merit, plus the failed-cell count. All state is serializable and
// resumes exactly; aggregates from disjoint scenario ranges merge into
// the state a single fold would have produced (see MergeStudies).
type ComboAgg struct {
	Failed int                             `json:"failed"`
	Mean   [NumMetrics]stats.Mean          `json:"mean"`
	Quants [NumMetrics]stats.MergingSketch `json:"quants"`
}

// merge folds o into a; the sketches must share an accuracy parameter.
func (a *ComboAgg) merge(o *ComboAgg) error {
	a.Failed += o.Failed
	for m := 0; m < NumMetrics; m++ {
		a.Mean[m].Merge(&o.Mean[m])
		if err := a.Quants[m].Merge(&o.Quants[m]); err != nil {
			return err
		}
	}
	return nil
}

// PairAgg counts paired per-scenario outcomes between combos A and B
// (indices into Study.Combos, A < B) for every metric. Lower is better,
// so AWins[m] counts scenarios where combo A had the strictly lower
// value of metric m; scenarios where either combo failed are skipped.
type PairAgg struct {
	A     int             `json:"a"`
	B     int             `json:"b"`
	AWins [NumMetrics]int `json:"a_wins"`
	BWins [NumMetrics]int `json:"b_wins"`
	Ties  [NumMetrics]int `json:"ties"`
}

// Merge adds o's counts into p; both must describe the same combo pair.
func (p *PairAgg) Merge(o PairAgg) error {
	if p.A != o.A || p.B != o.B {
		return fmt.Errorf("population: merging mismatched pairs (%d,%d) vs (%d,%d)", p.A, p.B, o.A, o.B)
	}
	for m := 0; m < NumMetrics; m++ {
		p.AWins[m] += o.AWins[m]
		p.BWins[m] += o.BWins[m]
		p.Ties[m] += o.Ties[m]
	}
	return nil
}

// Study is both the running aggregate state and the final result; its
// JSON encoding is the checkpoint format.
type Study struct {
	Version    int                       `json:"version"`
	Seed       int64                     `json:"seed"`
	Population scenario.PopulationParams `json:"population"`
	Combos     []Combo                   `json:"combos"`
	// Lo is the index of the first scenario this study covers: the
	// range is [Lo, Lo+Target). Zero for a whole-population study;
	// nonzero for one shard of a sharded study.
	Lo int `json:"lo,omitempty"`
	// Target is the scenario count the run is heading for; Done is how
	// many have been folded (the next scenario index is Lo+Done). A
	// checkpoint with Done < Target is a run in flight (killed or still
	// going); Resume picks up at Done.
	Target int        `json:"target"`
	Done   int        `json:"done"`
	Aggs   []ComboAgg `json:"aggs"`
	Pairs  []PairAgg  `json:"pairs"`
}

// CheckpointVersion guards the checkpoint format. Version 2 switched
// the per-combo aggregates from Welford/P² state to exact-sum means
// and mergeable sketches and added the shard range; version-1
// checkpoints are rejected rather than misread.
const CheckpointVersion = 2

// newStudy builds the empty aggregate state for p. The zero
// stats.Mean and stats.MergingSketch are ready to use, so only the
// pair table needs populating.
func newStudy(p Params) *Study {
	st := &Study{
		Version:    CheckpointVersion,
		Seed:       p.Seed,
		Population: p.Population,
		Combos:     append([]Combo(nil), p.Combos...),
		Lo:         p.Lo,
		Target:     p.Scenarios,
		Aggs:       make([]ComboAgg, len(p.Combos)),
	}
	for a := 0; a < len(p.Combos); a++ {
		for b := a + 1; b < len(p.Combos); b++ {
			st.Pairs = append(st.Pairs, PairAgg{A: a, B: b})
		}
	}
	return st
}

// Run executes a fresh streaming study. On cancellation it writes a
// final checkpoint (when CheckpointPath is set) and returns the partial
// study alongside the error, so callers can inspect or resume it.
func Run(ctx context.Context, p Params, opts ...runner.Option) (*Study, error) {
	p = p.withDefaults()
	if p.Scenarios <= 0 {
		return nil, fmt.Errorf("population: no scenarios requested")
	}
	if p.Lo < 0 {
		return nil, fmt.Errorf("population: negative shard offset %d", p.Lo)
	}
	return run(ctx, newStudy(p), p, opts...)
}

// Resume continues a study from a checkpoint file. The checkpoint's
// seed, combos and population parameters override p's; p.Scenarios,
// when larger than the checkpoint's target, extends the run to the new
// total (0 keeps the original target). The checkpoint is rewritten as
// the run progresses (to p.CheckpointPath, defaulting to path).
func Resume(ctx context.Context, path string, p Params, opts ...runner.Option) (*Study, error) {
	st, err := LoadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	p = p.withDefaults()
	p.Seed = st.Seed
	p.Combos = st.Combos
	p.Population = st.Population
	p.Lo = st.Lo
	if p.CheckpointPath == "" {
		p.CheckpointPath = path
	}
	if p.Scenarios > st.Target {
		st.Target = p.Scenarios
	}
	p.Scenarios = st.Target
	return run(ctx, st, p, opts...)
}

// run drives the batched sample → emulate → fold loop from st.Done to
// st.Target (absolute scenario indices st.Lo+st.Done to st.Lo+st.Target).
func run(ctx context.Context, st *Study, p Params, opts ...runner.Option) (*Study, error) {
	sinceCheckpoint := 0
	checkpoint := func() error {
		if p.CheckpointPath == "" {
			return nil
		}
		return SaveCheckpoint(p.CheckpointPath, st)
	}
	for st.Done < st.Target {
		lo, hi := st.Lo+st.Done, st.Lo+st.Done+p.BatchSize
		if hi > st.Lo+st.Target {
			hi = st.Lo + st.Target
		}
		results, err := p.RunBatch(ctx, batchSpecs(p, lo, hi), opts...)
		if err != nil {
			// Canceled (or failed fast) mid-batch: persist the folded
			// prefix so the run can resume exactly where it stopped.
			if ckErr := checkpoint(); ckErr != nil {
				return st, fmt.Errorf("population: %w (checkpoint also failed: %v)", err, ckErr)
			}
			return st, err
		}
		foldBatch(st, lo, hi, results)
		if p.Progress != nil {
			p.Progress(st.Done, st.Target)
		}
		sinceCheckpoint++
		if sinceCheckpoint >= p.CheckpointEvery {
			if err := checkpoint(); err != nil {
				return st, err
			}
			sinceCheckpoint = 0
		}
	}
	if err := checkpoint(); err != nil {
		return st, err
	}
	return st, nil
}

// batchSpecs builds the (scenario, combo) cell specs for scenarios
// [lo,hi), scenario-major.
func batchSpecs(p Params, lo, hi int) []runner.Spec {
	specs := make([]runner.Spec, 0, (hi-lo)*len(p.Combos))
	for i := lo; i < hi; i++ {
		scn := Scenario(p.Seed, i, p.Population)
		for _, combo := range p.Combos {
			specs = append(specs, runner.Spec{
				Label: fmt.Sprintf("%s/%s", scn.Name, combo),
				Make:  func() (client.Config, error) { return comboConfig(scn, combo) },
			})
		}
	}
	return specs
}

// Scenario is member i of the population of seed: scenario.Sample on
// an RNG seeded with runner.DeriveSeed(seed, i), named pop-NNNNNNN. It
// is the one definition of a population member, so a study's scenario
// i, scengen's pop-NNNNNNN.json and a benchmark deck drawn from the
// same (seed, pop) are the same host.
func Scenario(seed int64, i int, pop scenario.PopulationParams) *scenario.Scenario {
	scn := scenario.Sample(stats.NewRNG(runner.DeriveSeed(seed, i)), pop)
	scn.Name = fmt.Sprintf("pop-%07d", i)
	return scn
}

// comboConfig builds the config for one (scenario, combo) cell; the
// scenario is copied so concurrent cells never share mutable state.
func comboConfig(base *scenario.Scenario, combo Combo) (client.Config, error) {
	s := *base
	s.Policies.JobSched = combo.Sched
	s.Policies.JobFetch = combo.Fetch
	return s.Config()
}

// foldBatch folds one batch of results into the aggregates, strictly
// in scenario order (then combo order), so the accumulated floating-
// point state is independent of worker scheduling.
func foldBatch(st *Study, lo, hi int, results []runner.RunResult) {
	nc := len(st.Combos)
	vals := make([][NumMetrics]float64, nc)
	failed := make([]bool, nc)
	for i := lo; i < hi; i++ {
		for c := 0; c < nc; c++ {
			r := results[(i-lo)*nc+c]
			failed[c] = r.Err != nil
			if !failed[c] {
				vals[c] = r.Result.Metrics.Values()
			}
		}
		foldScenario(st, vals, failed)
		st.Done++
	}
}

// foldScenario folds one scenario's per-combo values. vals and failed
// are the caller's reusable batch buffers, overwritten per scenario, so
// nothing here may allocate or hold a reference to them past the call.
//
//bce:hotpath
//bce:scratch
func foldScenario(st *Study, vals [][NumMetrics]float64, failed []bool) {
	for c := range st.Aggs {
		ag := &st.Aggs[c]
		if failed[c] {
			ag.Failed++
			continue
		}
		for m := 0; m < NumMetrics; m++ {
			ag.Mean[m].Add(vals[c][m])
			ag.Quants[m].Add(vals[c][m])
		}
	}
	for pi := range st.Pairs {
		pr := &st.Pairs[pi]
		if failed[pr.A] || failed[pr.B] {
			continue
		}
		for m := 0; m < NumMetrics; m++ {
			switch {
			case vals[pr.A][m] < vals[pr.B][m]:
				pr.AWins[m]++
			case vals[pr.B][m] < vals[pr.A][m]:
				pr.BWins[m]++
			default:
				pr.Ties[m]++
			}
		}
	}
}

// Mean returns the population mean and 95% CI half-width of one metric
// for one combo (failed scenarios excluded).
func (st *Study) Mean(combo, metric int) (mean, ci float64) {
	m := &st.Aggs[combo].Mean[metric]
	return m.Mean(), m.CI95()
}

// Quantile returns the estimated quantile of one metric for one combo,
// accurate to the sketch's relative-error bound (stats.MergingSketch).
func (st *Study) Quantile(combo, metric int, p float64) (float64, error) {
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("population: quantile %v outside [0,1]", p)
	}
	return st.Aggs[combo].Quants[metric].Quantile(p), nil
}

// PairedWins returns the paired per-scenario comparison of combos a and
// b (indices into Combos) on one metric: scenarios where a was strictly
// better (lower), where b was, and ties.
func (st *Study) PairedWins(metric, a, b int) (aWins, bWins, ties int) {
	if a == b {
		return 0, 0, st.Done - st.Aggs[a].Failed
	}
	swap := false
	if a > b {
		a, b, swap = b, a, true
	}
	for _, pr := range st.Pairs {
		if pr.A == a && pr.B == b {
			if swap {
				return pr.BWins[metric], pr.AWins[metric], pr.Ties[metric]
			}
			return pr.AWins[metric], pr.BWins[metric], pr.Ties[metric]
		}
	}
	return 0, 0, 0
}
