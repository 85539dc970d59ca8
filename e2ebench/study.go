package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"time"

	"bce/internal/client"
	"bce/internal/fabric"
	"bce/internal/population"
	"bce/internal/runner"
	"bce/internal/scenario"
	"bce/internal/stats"
)

const (
	studyDays = 0.02
	// studyPopSeed pins the study's population for the same reason as
	// fleetDeckBase: at 0.02 days the per-scenario cost still spans two
	// orders of magnitude, and a 300-scenario population drawn per seed
	// moves scen_per_s by ~20% between seeds. The seed argument picks
	// the shard count and the combo order instead.
	studyPopSeed   = 20110517
	studyScenarios = 300
	studyTiny      = 4
	// studyBatch divides every shard of a 2- or 3-way split of 300
	// scenarios, so both arms fold the same batches and a seed's shard
	// count changes only the lease and report traffic.
	studyBatch = 50
	// clientNewCells is how many of the study's cells the traced run
	// builds a client for after the fact, to time client.New, which
	// runner.Batch calls out of the benchmark's reach.
	clientNewCells = 200
)

// batchHook wraps runner.Batch for population.Params.RunBatch and
// fabric.Worker.RunBatch: it spans every batch and every Spec.Make and
// sums the kernel counters of the cells it ran. Both engines call it
// from the goroutine that runs the arm, one batch at a time.
type batchHook struct {
	tr      *tracer
	parent  int // the arm span batches nest under
	tot     hostOut
	batchMS []float64 // wall time of every call, in call order
}

func (h *batchHook) run(ctx context.Context, specs []runner.Spec, opts ...runner.Option) ([]runner.RunResult, error) {
	t0 := time.Now()
	b := h.tr.begin("runner.Batch", h.parent)
	if h.tr != nil {
		wrapped := make([]runner.Spec, len(specs))
		for i, sp := range specs {
			mk := sp.Make
			wrapped[i] = runner.Spec{Label: sp.Label, Make: func() (client.Config, error) {
				s := h.tr.begin("runner.Make", b)
				defer h.tr.end(s)
				return mk()
			}}
		}
		specs = wrapped
	}
	res, err := runner.Batch(ctx, specs, opts...)
	h.tr.end(b)
	h.batchMS = append(h.batchMS, float64(time.Since(t0).Nanoseconds())/1e6)
	for _, r := range res {
		if r.Err != nil || r.Result == nil {
			continue // the fold counts it as a failed cell
		}
		h.tot.events += r.Result.Events
		h.tot.rpcs += r.Result.Metrics.RPCs
		for _, d := range r.Result.Dispatched {
			h.tot.dispatched += d
		}
	}
	return res, err
}

// studySpec is the one spec both arms run: the pinned population, the
// default combos in a seed-derived order, and a seed-derived shard
// count for the fabric arm.
func studySpec(seed int64, small bool) fabric.Spec {
	rng := stats.NewRNG(runner.DeriveSeed(seed, 0))
	combos := population.DefaultCombos()
	perm := rng.Perm(len(combos))
	ordered := make([]population.Combo, len(combos))
	for i, j := range perm {
		ordered[i] = combos[j]
	}
	n := studyScenarios
	if small {
		n = studyTiny
	}
	return fabric.Spec{
		Seed:       studyPopSeed,
		Combos:     ordered,
		Population: scenario.PopulationParams{DurationDays: studyDays},
		Scenarios:  n,
		Shards:     2 + rng.Intn(2),
		BatchSize:  studyBatch,
	}
}

// studyRound is one round's two arms.
type studyRound struct {
	single, sharded time.Duration
	batchMS         [2][]float64 // per arm (single, fabric), every runner.Batch call
	singleCk        int64        // single-arm checkpoint size, bytes
	singleJSON      []byte
}

// runStudyRound runs the single-process arm, then the fabric arm, on
// the same spec, in a fresh directory.
func runStudyRound(ctx context.Context, spec fabric.Spec, dir string, tr *tracer, single, sharded *batchHook, o *outcome) (*studyRound, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &studyRound{}

	arm := tr.begin("population.Run", 0)
	single.parent = arm
	nb := len(single.batchMS)
	t0 := time.Now()
	ck := filepath.Join(dir, "single.ck.json")
	st, err := population.Run(ctx, population.Params{
		Combos:         spec.Combos,
		Scenarios:      spec.Scenarios,
		Seed:           spec.Seed,
		Population:     spec.Population,
		BatchSize:      spec.BatchSize,
		CheckpointPath: ck,
		RunBatch:       single.run,
	}, runner.WithWorkers(1))
	r.single = time.Since(t0)
	tr.end(arm)
	if err != nil {
		return nil, fmt.Errorf("single arm: %w", err)
	}
	r.batchMS[0] = single.batchMS[nb:]
	if fi, err := os.Stat(ck); err == nil {
		r.singleCk = fi.Size()
	}
	if r.singleJSON, err = json.Marshal(st); err != nil {
		return nil, err
	}

	arm = tr.begin("fabric.Study", 0)
	sharded.parent = arm
	nb = len(sharded.batchMS)
	t0 = time.Now()
	merged, err := shardedStudy(ctx, spec, dir, sharded)
	r.sharded = time.Since(t0)
	tr.end(arm)
	if err != nil {
		return nil, fmt.Errorf("fabric arm: %w", err)
	}
	r.batchMS[1] = sharded.batchMS[nb:]

	cells := spec.Scenarios * len(spec.Combos)
	o.attempted += 2 * cells
	for i, s := range []*population.Study{st, merged} {
		for _, ag := range s.Aggs {
			if ag.Failed > 0 {
				o.fail("arm %d: %d failed cells", i, ag.Failed)
			}
		}
		if s.Done != spec.Scenarios {
			o.fail("arm %d folded %d of %d scenarios", i, s.Done, spec.Scenarios)
		}
	}
	mergedJSON, err := json.Marshal(merged)
	if err != nil {
		return nil, err
	}
	if string(mergedJSON) != string(r.singleJSON) {
		o.fail("fabric study differs from the single-process study")
	}
	return r, nil
}

// shardedStudy runs spec through an in-process coordinator on a
// loopback HTTP server and one worker that leases every shard.
func shardedStudy(ctx context.Context, spec fabric.Spec, dir string, hook *batchHook) (*population.Study, error) {
	coord, err := fabric.NewCoordinator(spec, fabric.CoordinatorOptions{Dir: filepath.Join(dir, "coord")})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	w := &fabric.Worker{Coord: ts.URL, Name: "bench", Dir: filepath.Join(dir, "worker"), RunBatch: hook.run}
	if err := w.Run(ctx, runner.WithWorkers(1)); err != nil {
		return nil, err
	}
	return coord.Result()
}

// studyPass is a run of whole rounds: budget-bounded, or exactly
// `rounds` rounds for a replay.
type studyPass struct {
	rounds          []*studyRound
	single, sharded *batchHook
	wall            time.Duration
	digest          string
}

func runStudyPass(ctx context.Context, spec fabric.Spec, dir string, budget time.Duration, rounds int, tr *tracer, o *outcome) (*studyPass, error) {
	sp := &studyPass{single: &batchHook{tr: tr}, sharded: &batchHook{tr: tr}}
	t0 := time.Now()
	for r := 0; ; r++ {
		if (budget > 0 && r > 0 && time.Since(t0) >= budget) || (budget <= 0 && r == rounds) {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rd, err := runStudyRound(ctx, spec, filepath.Join(dir, fmt.Sprintf("round-%d", r)), tr, sp.single, sp.sharded, o)
		if err != nil {
			return nil, err
		}
		if r > 0 && string(rd.singleJSON) != string(sp.rounds[0].singleJSON) {
			o.fail("round %d study differs from round 0", r)
		}
		sp.rounds = append(sp.rounds, rd)
	}
	sp.wall = time.Since(t0)
	var d digest
	d.add("%s", sp.rounds[0].singleJSON)
	sp.digest = d.String()
	return sp, nil
}

// armSeconds lists each round's single-process and fabric wall times.
func (sp *studyPass) armSeconds() (single, sharded []float64) {
	for _, r := range sp.rounds {
		single = append(single, r.single.Seconds())
		sharded = append(sharded, r.sharded.Seconds())
	}
	return single, sharded
}

// batchBests is each fold batch's fastest latency over the rounds, per
// arm and batch position; the population is fixed, so every round folds
// the same batches. Like the fastest of armSeconds, it keeps slowdowns
// of the machine, which can span several rounds, from moving the run's
// figures.
func (sp *studyPass) batchBests() []float64 {
	var bests []float64
	for arm := range sp.rounds[0].batchMS {
		for i := range sp.rounds[0].batchMS[arm] {
			var at []float64
			for _, r := range sp.rounds {
				at = append(at, r.batchMS[arm][i])
			}
			bests = append(bests, slices.Min(at))
		}
	}
	return bests
}

// studyCells samples the spec's population the way population.Run
// does and returns every cell's configuration, in fold order.
func studyCells(spec fabric.Spec, limit int) ([]client.Config, error) {
	var cells []client.Config
	for i := 0; i < spec.Scenarios && len(cells) < limit; i++ {
		scn := scenario.Sample(stats.NewRNG(runner.DeriveSeed(spec.Seed, i)), spec.Population)
		for _, c := range spec.Combos {
			s := *scn
			s.Policies.JobSched, s.Policies.JobFetch = c.Sched, c.Fetch
			cfg, err := s.Config()
			if err != nil {
				return nil, fmt.Errorf("scenario %d under %s: %w", i, c, err)
			}
			cells = append(cells, cfg)
		}
	}
	return cells, nil
}

func runStudy(ctx context.Context, e *env) (*outcome, error) {
	// Set-up generates the spec and checks that every cell compiles, so
	// a bad input fails here rather than as a failed cell.
	setupS, spec, err := setupTimes(setupRepeats,
		func() (fabric.Spec, error) {
			spec := studySpec(e.seed, e.small)
			if err := spec.Validate(); err != nil {
				return spec, err
			}
			_, err := studyCells(spec, spec.Scenarios*len(spec.Combos))
			return spec, err
		},
		func(fabric.Spec) {})
	if err != nil {
		return nil, err
	}
	o := &outcome{metrics: map[string]float64{}}
	base, err := runStudyPass(ctx, spec, filepath.Join(e.workDir, "untraced"), e.budget, 0, nil, o)
	if err != nil {
		return nil, err
	}
	o.digest = base.digest
	singles, shardeds := base.armSeconds()
	singleS, shardedS, batchMS := slices.Min(singles), slices.Min(shardeds), base.batchBests()
	n := float64(spec.Scenarios)
	o.note("rounds %d of %d scenarios x %d combos, %d shards; arm seconds: single %.3f, fabric %.3f; latency samples %d batches x %d rounds",
		len(base.rounds), spec.Scenarios, len(spec.Combos), spec.Shards, singles, shardeds, len(batchMS), len(base.rounds))
	if !e.trace {
		o.metrics["setup_s"] = setupS
		o.metrics["max_rss_mb"] = maxRSSMiB()
		o.metrics["client_days_per_s"] = n * float64(len(spec.Combos)) * studyDays / singleS
		o.metrics["scen_per_s"] = n / singleS
		o.metrics["rps"] = float64(len(batchMS)) / (singleS + shardedS)
		o.metrics["p50_ms"] = quantile(batchMS, 0.5)
		o.metrics["p99_ms"] = quantile(batchMS, 0.99)
		return o, nil
	}
	scen := float64(len(base.rounds)) * n
	cells := scen * float64(len(spec.Combos))

	var traced *studyPass
	tr, pr, err := tracedPass(e, "study", func(tr *tracer) error {
		var err error
		traced, err = runStudyPass(ctx, spec, filepath.Join(e.workDir, "traced"), 0, len(base.rounds), tr, o)
		return err
	})
	if err != nil {
		return nil, err
	}
	again, err := runStudyPass(ctx, spec, filepath.Join(e.workDir, "again"), 0, len(base.rounds), nil, o)
	if err != nil {
		return nil, err
	}
	for _, dg := range []string{traced.digest, again.digest} {
		if dg != base.digest {
			o.fail("replay digest %s differs from untraced %s", dg, base.digest)
		}
	}
	newUS, err := clientNewMicros(spec)
	if err != nil {
		return nil, err
	}
	m := zeroMetrics()
	addShares(m, pr.shares)
	days := cells * studyDays // per arm
	tot := traced.single.tot
	m["sim.events_per_day"] = float64(tot.events) / days
	m["sim.events_per_cell"] = float64(tot.events) / cells
	m["fetch.rpcs_per_day"] = float64(tot.rpcs) / days
	m["fetch.jobs_per_rpc"] = ratio(float64(tot.dispatched), float64(tot.rpcs))
	m["project.jobs_per_day"] = float64(tot.dispatched) / days
	m["client.new_us"] = newUS
	m["scenario.config_us"] = median(tr.durations("runner.Make")) * 1e3
	m["runner.make_us"] = m["scenario.config_us"]
	m["runtime.allocs_per_day"] = float64(pr.allocs) / (2 * days)
	m["runtime.bytes_per_day"] = float64(pr.bytes) / (2 * days)
	armsMS := sum(tr.durations("population.Run")) + sum(tr.durations("fabric.Study"))
	m["runner.batch_share"] = sum(tr.durations("runner.Batch")) / armsMS
	m["population.outside_batch_ms"] = mean(tr.selfMS("population.Run"))
	m["fabric.outside_batch_ms"] = mean(tr.selfMS("fabric.Study"))
	m["population.checkpoint_kb"] = float64(traced.rounds[0].singleCk) / 1024
	tSingles, tShardeds := traced.armSeconds()
	m["fabric.overhead_ratio"] = median(tShardeds) / median(tSingles)
	m["sharded_scen_per_s"] = n / shardedS // an end-to-end figure: from the untraced pass
	m["trace_overhead"] = traceOverhead(o, base.wall, traced.wall, again.wall)
	o.metrics = m
	return o, nil
}

// clientNewMicros times client.New on the study's first cells, the one
// per-cell call that happens inside runner.Batch.
func clientNewMicros(spec fabric.Spec) (float64, error) {
	cells, err := studyCells(spec, clientNewCells)
	if err != nil {
		return 0, err
	}
	tr := newTracer()
	for _, cfg := range cells {
		s := tr.begin("client.New", 0)
		_, err := client.New(cfg)
		tr.end(s)
		if err != nil {
			return 0, err
		}
	}
	return median(tr.durations("client.New")) * 1e3, nil
}
