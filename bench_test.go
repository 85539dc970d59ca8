package bce_test

// One benchmark per figure in the paper's evaluation (§5), each
// regenerating the figure's data and reporting its headline numbers as
// custom benchmark metrics, plus micro-benchmarks of the emulator
// itself. Run with:
//
//	go test -bench=. -benchmem
//
// The hot-path and per-figure benchmarks are DECLARED in internal/perf
// (the ledger suite `bcectl bench run` executes); the Benchmark*
// functions here are thin wrappers, so a human's `go test -bench` run
// and the ledger's are the same code. Benchmarks that only make sense
// interactively (worker scaling, policy ablations) live here alone;
// all report allocations and exclude setup from the timed section.
//
// The per-figure benches report the reproduced values so a bench run
// doubles as a reproduction record (see EXPERIMENTS.md).

import (
	"context"
	"fmt"
	"testing"

	"bce"
	"bce/internal/emserver"
	"bce/internal/experiments"
	"bce/internal/fetch"
	"bce/internal/fleet"
	"bce/internal/host"
	"bce/internal/job"
	"bce/internal/perf"
	"bce/internal/project"
	"bce/internal/sched"
)

// Ledger-suite wrappers: the definitions live in internal/perf so
// `bcectl bench run` measures exactly what `go test -bench` does.

func BenchmarkFig1(b *testing.B) { perf.BenchFig1(b) }
func BenchmarkFig2(b *testing.B) { perf.BenchFig2(b) }
func BenchmarkFig3(b *testing.B) { perf.BenchFig3(b) }
func BenchmarkFig4(b *testing.B) { perf.BenchFig4(b) }
func BenchmarkFig5(b *testing.B) { perf.BenchFig5(b) }
func BenchmarkFig6(b *testing.B) { perf.BenchFig6(b) }

// BenchmarkEmulationDay measures raw emulator speed: one emulated day
// of a 4-CPU, two-project host per iteration.
func BenchmarkEmulationDay(b *testing.B) { perf.BenchEmulationDay(b) }

// BenchmarkRRSimJobHeavyFleet measures the emulator on a job-heavy
// queue: a deep work buffer of short jobs keeps 1000+ tasks queued, so
// every scheduling point pays the round-robin simulation over the full
// queue. This is the end-to-end view of internal/rrsim's
// BenchmarkRRSim/jobheavy (which isolates one simulation pass).
func BenchmarkRRSimJobHeavyFleet(b *testing.B) { perf.BenchJobHeavyFleet(b) }

// BenchmarkClientNew measures client.New, the per-cell setup a study
// or a served run pays, over a deck of 64 population-sampled configs.
func BenchmarkClientNew(b *testing.B) { perf.BenchClientNew(b) }

// BenchmarkStudyCells measures 100 study cells end to end, setup
// included: the pinned study population's first 20 scenarios under the
// 5 default combos at 0.02 days, through the batch engine on one
// worker.
func BenchmarkStudyCells(b *testing.B) { perf.BenchStudyCells(b) }

// Job-service (internal/serve) wrappers: cache-hit cost, in-process
// async ticket round-trip, and HTTP submit→poll cycles through the
// load generator.
func BenchmarkServeCacheHit(b *testing.B)   { perf.BenchServeCacheHit(b) }
func BenchmarkServeSubmitPoll(b *testing.B) { perf.BenchServeSubmitPoll(b) }
func BenchmarkServeLoadgen(b *testing.B)    { perf.BenchServeLoadgen(b) }

// BenchmarkRunBatch measures the parallel execution engine on a fixed
// 16-run workload (one emulated day each) across worker counts. On a
// multi-core machine the runs/sec metric should scale until the worker
// count exceeds the cores. (The ledger tracks only the 4-worker point,
// as runbatch16_w4.)
func BenchmarkRunBatch(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				scns := make([]*bce.Scenario, 16)
				for j := range scns {
					scns[j] = &bce.Scenario{
						Name: fmt.Sprintf("batch-%d", j), DurationDays: 1,
						Seed: bce.DeriveSeed(int64(i), j),
						Host: bce.HostJSON{NCPU: 2, CPUGFlops: 1, MinQueueHours: 1, MaxQueueHours: 4},
						Projects: []bce.ProjectJSON{
							{Name: "a", Share: 100, Apps: []bce.AppJSON{{Name: "x", NCPUs: 1, MeanSecs: 1200, LatencySecs: 86400}}},
							{Name: "b", Share: 100, Apps: []bce.AppJSON{{Name: "y", NCPUs: 1, MeanSecs: 2400, LatencySecs: 86400}}},
						},
					}
				}
				b.StartTimer()
				results, err := bce.RunBatch(context.Background(), scns, bce.WithWorkers(workers))
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
		})
	}
}

// BenchmarkScenario4Policies measures the cost of the paper's largest
// scenario (20 projects, mixed CPU/GPU) under both fetch policies.
func BenchmarkScenario4Policies(b *testing.B) {
	for _, kind := range []fetch.PolicyKind{fetch.JFOrig, fetch.JFHysteresis} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := experiments.Scenario4(kind, int64(i))
				cfg.Duration = 86400 // one day per iteration
				if _, err := bce.RunConfigContext(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSchedPolicies measures a day of scenario 1 under each job
// scheduling policy (the fig-3 ablation axis).
func BenchmarkSchedPolicies(b *testing.B) {
	for _, p := range []sched.Policy{sched.JSWRR, sched.JSLocal, sched.JSGlobal} {
		p := p
		b.Run(p.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := experiments.Scenario1(1500, p, int64(i))
				cfg.Duration = 86400
				if _, err := bce.RunConfigContext(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransferPolicies is an ablation for the file-transfer
// extension: a slow link with mixed data-heavy and compute-heavy
// projects under each transfer-ordering policy. Reported metric:
// deadline misses per emulated day.
func BenchmarkTransferPolicies(b *testing.B) {
	for _, policy := range []string{"fifo", "smallest-first", "edf"} {
		policy := policy
		b.Run(policy, func(b *testing.B) {
			b.ReportAllocs()
			missed := 0
			for i := 0; i < b.N; i++ {
				s := &bce.Scenario{
					Name: "xfer-bench", DurationDays: 1, Seed: int64(i),
					Host: bce.HostJSON{
						NCPU: 2, CPUGFlops: 2,
						MinQueueHours: 1, MaxQueueHours: 4,
						DownMbps: 8, UpMbps: 8,
					},
					Projects: []bce.ProjectJSON{
						{Name: "mix", Share: 100, Apps: []bce.AppJSON{
							{Name: "urgent", NCPUs: 1, MeanSecs: 600, LatencySecs: 1800,
								InputMB: 300, OutputMB: 5},
							{Name: "bulk", NCPUs: 1, MeanSecs: 1200, LatencySecs: 86400,
								InputMB: 100, OutputMB: 5},
						}},
					},
					Policies: bce.Policies{Transfers: policy},
				}
				res, err := bce.Run(s)
				if err != nil {
					b.Fatal(err)
				}
				missed += res.Metrics.MissedJobs
			}
			b.ReportMetric(float64(missed)/float64(b.N), "missed/day")
		})
	}
}

// BenchmarkAblationDeadlineMargin sweeps the endangered-classification
// margin in scenario 1 — the stabilisation knob DESIGN.md documents.
func BenchmarkAblationDeadlineMargin(b *testing.B) {
	for _, margin := range []float64{-1, 60, 120, 300} {
		margin := margin
		name := "margin0"
		if margin > 0 {
			name = fmt.Sprintf("margin%d", int(margin))
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			wasted := 0.0
			for i := 0; i < b.N; i++ {
				cfg := experiments.Scenario1(1200, sched.JSLocal, int64(i))
				cfg.Duration = 2 * 86400
				cfg.DeadlineMargin = margin
				res, err := bce.RunConfigContext(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				wasted += res.Metrics.WastedFraction
			}
			b.ReportMetric(wasted/float64(b.N), "wasted_frac")
		})
	}
}

// BenchmarkAblationCheckpointPeriod sweeps how often applications
// checkpoint; rarely-checkpointing apps lose more work to preemption.
func BenchmarkAblationCheckpointPeriod(b *testing.B) {
	for _, cp := range []float64{-1, 60, 600, 3600} {
		cp := cp
		name := "never"
		if cp > 0 {
			name = fmt.Sprintf("%ds", int(cp))
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			lost := 0.0
			for i := 0; i < b.N; i++ {
				s := &bce.Scenario{
					Name: "cp-bench", DurationDays: 1, Seed: int64(i),
					Host: bce.HostJSON{NCPU: 1, CPUGFlops: 1, MinQueueHours: 1, MaxQueueHours: 3},
					Projects: []bce.ProjectJSON{
						{Name: "a", Share: 100, Apps: []bce.AppJSON{{
							Name: "x", NCPUs: 1, MeanSecs: 4000, LatencySecs: 864000, CheckpointS: cp,
						}}},
						{Name: "b", Share: 100, Apps: []bce.AppJSON{{
							Name: "y", NCPUs: 1, MeanSecs: 4000, LatencySecs: 864000, CheckpointS: cp,
						}}},
					},
				}
				res, err := bce.Run(s)
				if err != nil {
					b.Fatal(err)
				}
				lost += res.Metrics.LostFLOPSsec / 1e9
			}
			b.ReportMetric(lost/float64(b.N), "lost_cpu_sec")
		})
	}
}

// BenchmarkEmServer measures the EmBOINC-style server-side emulation
// across replication levels, reporting validated workunits per day and
// the waste fraction.
func BenchmarkEmServer(b *testing.B) {
	for _, repl := range []int{1, 2, 3} {
		repl := repl
		b.Run(fmt.Sprintf("replication%d", repl), func(b *testing.B) {
			b.ReportAllocs()
			var thr, waste float64
			for i := 0; i < b.N; i++ {
				st := emserver.Run(emserver.Params{
					Seed:           int64(i),
					NHosts:         100,
					Duration:       4 * 86400,
					TargetNResults: repl,
					MinQuorum:      repl,
				})
				thr += st.Throughput(4 * 86400)
				waste += st.WasteFraction()
			}
			b.ReportMetric(thr/float64(b.N), "validWU/day")
			b.ReportMetric(waste/float64(b.N), "waste_frac")
		})
	}
}

// BenchmarkFleetPlanning measures the multi-host share planner plus a
// fleet evaluation, reporting the violation improvement over uniform
// shares; fleet construction happens off the clock.
func BenchmarkFleetPlanning(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := benchFleet()
		b.StartTimer()
		uni, err := f.Evaluate(fleet.Uniform(f), 86400, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		plan, err := fleet.Optimize(f)
		if err != nil {
			b.Fatal(err)
		}
		opt, err := f.Evaluate(plan, 86400, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(uni.GlobalViolation, "uniform_violation")
		b.ReportMetric(opt.GlobalViolation, "planned_violation")
	}
}

func benchFleet() *fleet.Fleet {
	mk := func(ncpu int, cpuF float64, ngpu int, gpuF float64) *host.Host {
		h := host.StdHost(ncpu, cpuF, ngpu, gpuF)
		h.Prefs.MinQueue = 1200
		h.Prefs.MaxQueue = 3600
		return h
	}
	cpuApp := project.AppSpec{Name: "cpu", Usage: job.Usage{AvgCPUs: 1},
		MeanDuration: 1000, LatencyBound: 864000, CheckpointPeriod: 60}
	gpuApp := project.AppSpec{Name: "gpu",
		Usage:        job.Usage{AvgCPUs: 0.2, GPUType: host.NvidiaGPU, GPUUsage: 1},
		MeanDuration: 500, LatencyBound: 864000, CheckpointPeriod: 60}
	return &fleet.Fleet{
		Hosts: []*host.Host{mk(4, 1e9, 1, 10e9), mk(8, 1e9, 0, 0)},
		Projects: []project.Spec{
			{Name: "A", Share: 100, Apps: []project.AppSpec{cpuApp, gpuApp}},
			{Name: "B", Share: 100, Apps: []project.AppSpec{cpuApp}},
		},
	}
}
