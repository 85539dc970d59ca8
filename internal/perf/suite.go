package perf

import (
	"context"
	"fmt"
	"testing"

	"bce"
	"bce/internal/client"
	"bce/internal/experiments"
	"bce/internal/fetch"
	"bce/internal/host"
	"bce/internal/job"
	"bce/internal/population"
	"bce/internal/rrsim"
	"bce/internal/runner"
	"bce/internal/scenario"
	"bce/internal/sched"
	"bce/internal/sim"
)

// sink defeats dead-code elimination in micro-benchmarks.
var sink int

var benchSeeds = []int64{1}

// HotSuite returns the kernel hot-path benchmarks: the end-to-end
// scenario-day plus micro-benchmarks of each inner loop the speed
// campaign targets. These are the entries CI gates on.
func HotSuite() []Bench {
	return []Bench{
		{Name: "emulation_day", Doc: "one emulated day, 4-CPU 2-project host (end-to-end kernel)", F: BenchEmulationDay},
		{Name: "jobheavy_fleet", Doc: "quarter day with a 1000+ task queue (rrsim-dominated)", F: BenchJobHeavyFleet},
		{Name: "runbatch16_w4", Doc: "16 scenario-days through the batch engine, 4 workers", F: BenchRunBatch16},
		{Name: "sched_enforce", Doc: "one scheduling pass over a 256-task queue", F: BenchSchedEnforce},
		{Name: "fetch_decide", Doc: "all three fetch policies over 16 projects", F: BenchFetchDecide},
		{Name: "rrsim_pass", Doc: "one round-robin simulation pass, 600 jobs, 2 projects", F: BenchRRSimPass},
		{Name: "sim_eventloop", Doc: "event kernel under a client-like timer/reschedule pattern", F: BenchSimEventLoop},
		{Name: "rrsim_deep", Doc: "one round-robin simulation pass, 16 CPUs, 1,500 jobs in arrival batches", F: BenchRRSimDeep},
		{Name: "sched_queue", Doc: "one scheduling pass over the same 1,500 tasks, all endangered", F: BenchSchedQueue},
		{Name: "client_new", Doc: "client.New over 64 population-sampled 0.02-day configs", F: BenchClientNew},
		{Name: "study_cells", Doc: "100 study cells (20 pinned-population scenarios × 5 default combos, 0.02 days) through runner.Batch, 1 worker", F: BenchStudyCells},
	}
}

// FigureSuite returns the per-figure reproduction benchmarks. Each
// regenerates one figure of the paper and reports its headline values
// as custom metrics, so a ledger entry doubles as a reproduction
// record.
func FigureSuite() []Bench {
	return []Bench{
		{Name: "fig1", Doc: "Figure 1: resource share over combined resources", F: BenchFig1},
		{Name: "fig2", Doc: "Figure 2: round-robin simulation busy-time trace", F: BenchFig2},
		{Name: "fig3", Doc: "Figure 3: EDF vs WRR wasted processing", F: BenchFig3},
		{Name: "fig4", Doc: "Figure 4: global accounting share violation", F: BenchFig4},
		{Name: "fig5", Doc: "Figure 5: fetch hysteresis RPCs and monotony", F: BenchFig5},
		{Name: "fig6", Doc: "Figure 6: REC half-life share violation", F: BenchFig6},
	}
}

// AllSuite returns every declared benchmark, hot paths first.
func AllSuite() []Bench {
	all := append(HotSuite(), FigureSuite()...)
	return append(all, ServeSuite()...)
}

// Select resolves a suite spec: "hot", "figures", "serve", "all", or a
// comma-separated list of benchmark names from AllSuite.
func Select(spec string) ([]Bench, error) {
	switch spec {
	case "", "hot":
		return HotSuite(), nil
	case "figures":
		return FigureSuite(), nil
	case "serve":
		return ServeSuite(), nil
	case "all":
		return AllSuite(), nil
	}
	byName := make(map[string]Bench)
	for _, bn := range AllSuite() {
		byName[bn.Name] = bn
	}
	var out []Bench
	for _, name := range splitComma(spec) {
		bn, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("perf: unknown benchmark %q (want hot, figures, all, or names from `bcectl bench run -list`)", name)
		}
		out = append(out, bn)
	}
	return out, nil
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// dayScenario is the canonical end-to-end workload: one day of a 4-CPU
// two-project host. The ≥2× campaign target is measured on this bench's
// scen/s metric.
func dayScenario(seed int64) *bce.Scenario {
	return &bce.Scenario{
		Name: "bench", DurationDays: 1, Seed: seed,
		Host: bce.HostJSON{NCPU: 4, CPUGFlops: 1, MinQueueHours: 1, MaxQueueHours: 4},
		Projects: []bce.ProjectJSON{
			{Name: "a", Share: 100, Apps: []bce.AppJSON{{Name: "x", NCPUs: 1, MeanSecs: 1200, LatencySecs: 86400}}},
			{Name: "b", Share: 100, Apps: []bce.AppJSON{{Name: "y", NCPUs: 1, MeanSecs: 2400, LatencySecs: 86400}}},
		},
	}
}

// BenchEmulationDay measures raw emulator speed: one emulated day of a
// 4-CPU, two-project host per iteration. The scen/s metric is
// scenarios per second; the bench is single-threaded, so it is also
// scenarios per second per core.
func BenchEmulationDay(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bce.Run(dayScenario(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Events), "events/day")
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "scen/s")
}

// BenchJobHeavyFleet measures the emulator on a job-heavy queue: a deep
// work buffer of short jobs keeps 1000+ tasks queued, so every
// scheduling point pays the round-robin simulation over the full queue.
func BenchJobHeavyFleet(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &bce.Scenario{
			Name: "jobheavy", DurationDays: 0.25, Seed: 1,
			Host: bce.HostJSON{NCPU: 4, CPUGFlops: 1, MinQueueHours: 36, MaxQueueHours: 48},
			Projects: []bce.ProjectJSON{
				{Name: "a", Share: 100, Apps: []bce.AppJSON{{Name: "x", NCPUs: 1, MeanSecs: 600, LatencySecs: 4 * 86400}}},
				{Name: "b", Share: 100, Apps: []bce.AppJSON{{Name: "y", NCPUs: 1, MeanSecs: 600, LatencySecs: 4 * 86400}}},
			},
		}
		res, err := bce.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Events), "events")
			b.ReportMetric(float64(res.Metrics.CompletedJobs), "jobs")
		}
	}
}

// BenchRunBatch16 measures the parallel batch engine on a fixed 16-run
// workload (one emulated day each, 2-CPU host) with 4 workers.
func BenchRunBatch16(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scns := make([]*bce.Scenario, 16)
		for j := range scns {
			s := dayScenario(bce.DeriveSeed(int64(i), j))
			s.Name = fmt.Sprintf("batch-%d", j)
			s.Host.NCPU = 2
			scns[j] = s
		}
		//bce:ctxshim a benchmark is a call-tree root; there is no caller context to thread
		results, err := bce.RunBatch(context.Background(), scns, bce.WithWorkers(4))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	b.ReportMetric(float64(16*b.N)/b.Elapsed().Seconds(), "runs/s")
}

// benchTasks builds a deterministic 256-task queue mixing projects,
// states, deadlines and CPU/GPU usage, shaped like a busy client's.
func benchTasks(n int) []*job.Task {
	tasks := make([]*job.Task, 0, n)
	for i := 0; i < n; i++ {
		t := &job.Task{
			Name:        fmt.Sprintf("t%d", i),
			Project:     i % 8,
			Usage:       job.Usage{AvgCPUs: 1, MemBytes: 50e6},
			Duration:    1200,
			EstDuration: 1200,
			ReceivedAt:  float64(i % 97),
			Deadline:    86400 + float64((i*2654435761)%100000),
		}
		if i%5 == 0 {
			t.Usage = job.Usage{AvgCPUs: 0.2, GPUType: host.NvidiaGPU, GPUUsage: 1, MemBytes: 100e6}
		}
		if i%3 == 0 {
			t.State = job.Running
			t.StartedAt = 500
		}
		tasks = append(tasks, t)
	}
	return tasks
}

// BenchSchedEnforce measures one job-scheduling pass (build the ordered
// job list, scan it) over a 256-task queue.
func BenchSchedEnforce(b *testing.B) {
	h := host.StdHost(4, 1e9, 1, 1e10)
	in := sched.Input{
		Policy:   sched.JSGlobal,
		Hardware: &h.Hardware,
		Now:      1000,
		Tasks:    benchTasks(256),
		Endangered: func(t *job.Task) bool {
			return int64(t.Deadline)%3 == 0
		},
		Prio: func(p int, t host.ProcType) float64 {
			return -float64(p%7) - 0.1*float64(t)
		},
		GPUAllowed: true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := sched.Enforce(in)
		sink = len(dec.Run)
	}
}

// benchSupplier is a closure-free fetch.Supplier for the fetch bench:
// every project supplies CPU work, even-indexed ones also GPU work.
type benchSupplier struct{ cpuOnly bool }

func (s benchSupplier) SuppliesType(t host.ProcType) bool {
	return t == host.CPU || !s.cpuOnly
}

// BenchFetchDecide measures all three fetch policies over a 16-project
// view with CPU and GPU shortfalls.
func BenchFetchDecide(b *testing.B) {
	h := host.StdHost(4, 1e9, 1, 1e10)
	rr := &rrsim.Result{}
	rr.ShortfallMin[host.CPU] = 3600
	rr.ShortfallMax[host.CPU] = 7200
	rr.ShortfallMax[host.NvidiaGPU] = 1800
	rr.IdleNow[host.CPU] = 1
	rr.Saturated[host.CPU] = 600
	views := make([]fetch.ProjectView, 16)
	for p := range views {
		views[p] = fetch.ProjectView{
			Share:     100,
			PrioFetch: -float64(p % 5),
			Supplies:  benchSupplier{cpuOnly: p%2 != 0},
		}
	}
	in := fetch.Input{
		Now: 1000, Hardware: &h.Hardware, RR: rr,
		MinQueue: 3600, MaxQueue: 14400, Projects: views,
	}
	kinds := []fetch.PolicyKind{fetch.JFOrig, fetch.JFHysteresis, fetch.JFSpread}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range kinds {
			plan := fetch.Decide(k, in)
			sink = plan.Project
		}
	}
}

// BenchRRSimPass measures one round-robin simulation pass over a
// 600-job, 2-project queue with a persistent Simulator (the client's
// usage pattern).
func BenchRRSimPass(b *testing.B) {
	h := host.StdHost(4, 1e9, 1, 1e10)
	in := rrsim.Input{
		Now:        0,
		Hardware:   &h.Hardware,
		Shares:     []float64{100, 100},
		HorizonMin: 3600,
		HorizonMax: 14400,
	}
	for t := range in.OnFrac {
		in.OnFrac[t] = 1
	}
	jobs := make([]*rrsim.Job, 0, 600)
	for i := 0; i < 600; i++ {
		j := &rrsim.Job{
			Project:   i % 2,
			Type:      host.CPU,
			Instances: 1,
			Remaining: 300 + float64((i*2654435761)%1200),
			Deadline:  4*86400 + float64(i),
		}
		if i%7 == 0 {
			j.Type = host.NvidiaGPU
		}
		jobs = append(jobs, j)
	}
	in.Jobs = jobs
	s := rrsim.New()
	s.Run(in) // warm the simulator's buffers so allocs/op is steady-state even at -benchtime 1x
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := s.Run(in)
		sink = res.NumEndangered
	}
}

// The deep-queue shape of the fleet deck's slowest host: 1,500 one-CPU
// jobs on 16 CPUs, arriving in 14-job batches 30 s apart. One batch in
// nine belongs to the second project. Shares are 200/25, mean run
// times 580 s and 330 s (±80 s), and each deadline is the receipt time
// plus the app's latency bound.
const (
	deepJobs  = 1500
	deepBatch = 14
	deepNow   = 30 * (deepJobs/deepBatch + 1)
)

var (
	deepSecs    = [2]float64{580, 330}
	deepLatency = [2]float64{2200, 7100}
)

// deepJob returns queue entry i's project, receipt time and estimated
// run time.
func deepJob(i int) (project int, received, secs float64) {
	batch := i / deepBatch
	if batch%9 == 8 {
		project = 1
	}
	jitter := float64((i*2654435761)%161 - 80)
	return project, 30 * float64(batch), deepSecs[project] + jitter
}

// BenchRRSimDeep measures one round-robin simulation pass over the deep
// queue with a persistent, pre-warmed Simulator and Result (the
// client's usage pattern). Seating fills each group from its arrival
// front, so the jobs that finish first sit at the head of long groups.
func BenchRRSimDeep(b *testing.B) {
	h := host.StdHost(16, 5e9, 0, 0)
	in := rrsim.Input{
		Now:        deepNow,
		Hardware:   &h.Hardware,
		Shares:     []float64{200, 25},
		HorizonMin: 8 * 3600,
		HorizonMax: 36 * 3600,
	}
	for i := 0; i < deepJobs; i++ {
		p, recv, secs := deepJob(i)
		in.Jobs = append(in.Jobs, &rrsim.Job{
			Project: p, Type: host.CPU, Instances: 1,
			Remaining: secs, Deadline: recv + deepLatency[p],
		})
	}
	s := rrsim.New()
	res := &rrsim.Result{}
	s.RunInto(res, in) // size the scratch outside the measurement
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunInto(res, in)
		sink = res.NumEndangered
	}
}

// BenchSchedQueue measures one scheduling pass with a persistent,
// pre-warmed Enforcer over the deep queue as tasks: all of them
// deadline-endangered and the first 16 running, which in arrival order
// makes 12 ascending runs of deadlines, the most any pass of the fleet
// deck sees.
func BenchSchedQueue(b *testing.B) {
	h := host.StdHost(16, 5e9, 0, 0)
	tasks := make([]*job.Task, deepJobs)
	for i := range tasks {
		p, recv, secs := deepJob(i)
		t := &job.Task{
			Name:             fmt.Sprintf("t%d", i),
			Project:          p,
			Usage:            job.Usage{AvgCPUs: 1, MemBytes: 50e6},
			Duration:         secs,
			EstDuration:      secs,
			ReceivedAt:       recv,
			Deadline:         recv + deepLatency[p],
			CheckpointPeriod: 60,
		}
		if i < 16 {
			t.Start(deepNow - 90)
			t.Work, t.Checkpointed = 90, 60
		}
		tasks[i] = t
	}
	in := sched.Input{
		Policy:     sched.JSGlobal,
		Hardware:   &h.Hardware,
		Now:        deepNow,
		Tasks:      tasks,
		Endangered: func(*job.Task) bool { return true },
		Prio:       func(p int, _ host.ProcType) float64 { return -float64(p) },
		GPUAllowed: true,
	}
	var e sched.Enforcer
	e.Enforce(in) // size the scratch outside the measurement
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = len(e.Enforce(in).Run)
	}
}

// clientNewDeck is how many population-sampled configs one
// BenchClientNew op builds a client for.
const clientNewDeck = 64

// BenchClientNew measures client.New, the setup every study cell and
// served run pays before its first event, over a fixed deck of
// population-sampled configs (0.02 days, seed 1): sporadic hosts, GPU
// hosts and projects with downtime or work gaps, so every stream the
// client forks is built. One op builds the whole deck, which keeps
// allocs/op independent of the iteration count.
func BenchClientNew(b *testing.B) {
	cfgs := make([]client.Config, clientNewDeck)
	for i := range cfgs {
		scn := population.Scenario(1, i, scenario.PopulationParams{DurationDays: 0.02})
		cfg, err := scn.Config()
		if err != nil {
			b.Fatal(err)
		}
		cfgs[i] = cfg
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			c, err := client.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			sinkClient = c
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*clientNewDeck), "us/client")
}

// sinkClient keeps BenchClientNew's clients reachable.
var sinkClient *client.Client

const (
	// studyCellsSeed is the population seed e2ebench's study workload
	// pins, so study_cells runs the first cells that workload folds.
	studyCellsSeed = 20110517
	// studyCellsScenarios is how many of its scenarios one op runs,
	// each under every default combo.
	studyCellsScenarios = 20
)

// BenchStudyCells measures what a population study pays per cell, setup
// included: the pinned study population's first 20 scenarios under the
// 5 default combos at 0.02 days, each cell's config built by its Make,
// through runner.Batch with one worker. At this size a cell's scratch
// growth and stream setup are a visible share of its bytes.
func BenchStudyCells(b *testing.B) {
	pop := scenario.PopulationParams{DurationDays: 0.02}
	combos := population.DefaultCombos()
	specs := make([]runner.Spec, 0, studyCellsScenarios*len(combos))
	for i := 0; i < studyCellsScenarios; i++ {
		scn := population.Scenario(studyCellsSeed, i, pop)
		for _, c := range combos {
			specs = append(specs, runner.Spec{
				Label: fmt.Sprintf("cell-%d/%s", i, c),
				Make: func() (client.Config, error) {
					s := *scn
					s.Policies.JobSched, s.Policies.JobFetch = c.Sched, c.Fetch
					return s.Config()
				},
			})
		}
	}
	//bce:ctxshim a benchmark is a call-tree root; there is no caller context to thread
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := runner.Batch(ctx, specs, runner.WithWorkers(1))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	b.ReportMetric(float64(len(specs)*b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchSimEventLoop measures the discrete-event kernel under the
// client's timer pattern: many periodic chains (availability channels,
// checkpoints, completions) that each coalesce a shared tick timer the
// way scheduleTick does.
func BenchSimEventLoop(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sim.New()
		var tick *sim.Timer
		nticks := 0
		tickFn := func() {
			t := tick
			tick = nil
			s.Recycle(t)
			nticks++
		}
		scheduleTick := func(delay float64) {
			at := s.Now() + delay
			if tick != nil {
				if tick.At() <= at {
					return
				}
				s.Move(tick, at)
				return
			}
			tick = s.At(at, tickFn)
		}
		for c := 0; c < 64; c++ {
			c := c
			period := 50 + float64(c)
			var fire func()
			fire = func() {
				scheduleTick(0.25 + float64(c%4))
				s.Post(period, fire)
			}
			s.Post(period, fire)
		}
		s.RunUntil(20000)
		sink = nticks
	}
}

// benchFigure regenerates one registry figure per iteration and hands
// it to report, which records the figure's headline values as custom
// metrics.
func benchFigure(b *testing.B, id string, report func(fig *experiments.Figure)) {
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	//bce:ctxshim a benchmark is a call-tree root; there is no caller context to thread
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := e.Gen(ctx, benchSeeds)
		if err != nil {
			b.Fatal(err)
		}
		report(fig)
	}
}

// BenchFig1 regenerates Figure 1 (resource share applies to the host's
// combined processing resources).
func BenchFig1(b *testing.B) {
	benchFigure(b, "fig1", func(fig *experiments.Figure) {
		b.ReportMetric(fig.Y["total"][0], "A_GFLOPS")
		b.ReportMetric(fig.Y["total"][1], "B_GFLOPS")
		b.ReportMetric(fig.Y["CPU"][0], "A_CPU_GFLOPS")
		b.ReportMetric(fig.Y["GPU"][1], "B_GPU_GFLOPS")
	})
}

// BenchFig2 regenerates Figure 2 (round-robin simulation busy-time
// prediction).
func BenchFig2(b *testing.B) {
	benchFigure(b, "fig2", func(fig *experiments.Figure) {
		b.ReportMetric(float64(len(fig.X)), "trace_steps")
	})
}

// BenchFig3 regenerates Figure 3 (EDF scheduling reduces wasted
// processing).
func BenchFig3(b *testing.B) {
	benchFigure(b, "fig3", func(fig *experiments.Figure) {
		last := len(fig.X) - 1
		b.ReportMetric(fig.Y["JS-WRR"][0], "wrr_wasted_slack0")
		b.ReportMetric(fig.Y["JS-LOCAL"][0], "local_wasted_slack0")
		b.ReportMetric(fig.Y["JS-WRR"][last], "wrr_wasted_slackmax")
		b.ReportMetric(fig.Y["JS-LOCAL"][last], "local_wasted_slackmax")
	})
}

// BenchFig4 regenerates Figure 4 (global accounting reduces share
// violation).
func BenchFig4(b *testing.B) {
	benchFigure(b, "fig4", func(fig *experiments.Figure) {
		b.ReportMetric(fig.Y["JS-LOCAL"][0], "local_violation")
		b.ReportMetric(fig.Y["JS-GLOBAL"][0], "global_violation")
	})
}

// BenchFig5 regenerates Figure 5 (fetch hysteresis reduces RPCs per
// job, increases monotony).
func BenchFig5(b *testing.B) {
	benchFigure(b, "fig5", func(fig *experiments.Figure) {
		b.ReportMetric(fig.Y["JF-ORIG"][0], "orig_rpcs_per_job")
		b.ReportMetric(fig.Y["JF-HYSTERESIS"][0], "hyst_rpcs_per_job")
		b.ReportMetric(fig.Y["JF-ORIG"][1], "orig_monotony")
		b.ReportMetric(fig.Y["JF-HYSTERESIS"][1], "hyst_monotony")
	})
}

// BenchFig6 regenerates Figure 6 (longer REC half-life reduces share
// violation with long low-slack jobs).
func BenchFig6(b *testing.B) {
	benchFigure(b, "fig6", func(fig *experiments.Figure) {
		ys := fig.Y["JS-REC"]
		b.ReportMetric(ys[0], "violation_shortest_halflife")
		b.ReportMetric(ys[len(ys)-1], "violation_longest_halflife")
	})
}
