// Package experiments defines the paper's four evaluation scenarios
// (§5) and a generator per figure, listed in one registry (All, ByID).
// Each generator reruns the emulator the way the paper's controller
// script did and returns the figure's series; integration tests assert
// the paper's qualitative claims on the same data, cmd/bcectl prints
// it, and the perf figure suite times it.
package experiments

import (
	"context"
	"fmt"

	"bce/internal/client"
	"bce/internal/fetch"
	"bce/internal/harness"
	"bce/internal/host"
	"bce/internal/job"
	"bce/internal/project"
	"bce/internal/rrsim"
	"bce/internal/runner"
	"bce/internal/sched"
)

// Figure is one reproduced figure: X values and one Y series per
// variant/curve label.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Labels []string // curve order
	X      []float64
	Y      map[string][]float64 // label -> len(X) values
	Notes  string
}

// Row formats point i as a table row.
func (f *Figure) Row(i int) string {
	s := fmt.Sprintf("%-12.5g", f.X[i])
	for _, l := range f.Labels {
		s += fmt.Sprintf(" %12.4f", f.Y[l][i])
	}
	return s
}

// Header formats the column header row.
func (f *Figure) Header() string {
	s := fmt.Sprintf("%-12s", f.XLabel)
	for _, l := range f.Labels {
		s += fmt.Sprintf(" %12s", l)
	}
	return s
}

func cpuApp(name string, mean, stdev, bound float64) project.AppSpec {
	return project.AppSpec{
		Name:             name,
		Usage:            job.Usage{AvgCPUs: 1, MemBytes: 100e6},
		MeanDuration:     mean,
		StdevDuration:    stdev,
		LatencyBound:     bound,
		CheckpointPeriod: 60,
	}
}

func gpuApp(name string, mean, stdev, bound float64) project.AppSpec {
	return project.AppSpec{
		Name:             name,
		Usage:            job.Usage{AvgCPUs: 0.2, GPUType: host.NvidiaGPU, GPUUsage: 1, MemBytes: 100e6},
		MeanDuration:     mean,
		StdevDuration:    stdev,
		LatencyBound:     bound,
		CheckpointPeriod: 60,
	}
}

// Scenario1 is the paper's "CPU only, two projects": project 1's jobs
// run 1000 s with the given latency bound (the figure-3 sweep variable);
// project 2 has the same jobs with a 10-day bound.
func Scenario1(latencyBound float64, js sched.Policy, seed int64) client.Config {
	h := host.StdHost(1, 1e9, 0, 0)
	// Queue preferences below one job length, so each fetch brings a
	// single job: the figure isolates the scheduling policy's effect
	// rather than queue-pressure (a queued second tight job can never
	// meet its deadline regardless of policy).
	h.Prefs.MinQueue = 300
	h.Prefs.MaxQueue = 900
	return client.Config{
		Host: h,
		Projects: []project.Spec{
			{Name: "project1", Share: 100, Apps: []project.AppSpec{cpuApp("tight", 1000, 0, latencyBound)}},
			{Name: "project2", Share: 100, Apps: []project.AppSpec{cpuApp("normal", 1000, 0, 10*86400)}},
		},
		JobSched: js,
		JobFetch: fetch.JFHysteresis,
		Duration: 10 * 86400,
		Seed:     seed,
	}
}

// Scenario2 is "4 CPUs and 1 GPU, GPU 10× faster than one CPU; two
// projects, one with CPU jobs, one with both".
func Scenario2(js sched.Policy, seed int64) client.Config {
	h := host.StdHost(4, 1e9, 1, 10e9)
	h.Prefs.MinQueue = 0.05 * 86400
	h.Prefs.MaxQueue = 0.25 * 86400
	return client.Config{
		Host: h,
		Projects: []project.Spec{
			{Name: "project1", Share: 100, Apps: []project.AppSpec{
				cpuApp("cpu", 1000, 50, 86400),
			}},
			{Name: "project2", Share: 100, Apps: []project.AppSpec{
				cpuApp("cpu", 1000, 50, 86400),
				gpuApp("gpu", 500, 25, 86400),
			}},
		},
		JobSched: js,
		JobFetch: fetch.JFHysteresis,
		Duration: 10 * 86400,
		Seed:     seed,
	}
}

// Scenario3LongJobSecs is the length of project 1's "long low-slack"
// jobs (the paper's million-second jobs).
const Scenario3LongJobSecs = 1e6

// Scenario3 is "CPU only; two projects, one with very long low-slack
// jobs". The low slack makes the long jobs immediately deadline-
// endangered, so they run to the exclusion of project 2; the REC
// half-life controls how long the system remembers the resulting
// overuse (figure 6).
func Scenario3(halfLife float64, seed int64) client.Config {
	h := host.StdHost(1, 1e9, 0, 0)
	h.Prefs.MinQueue = 0.05 * 86400
	h.Prefs.MaxQueue = 0.25 * 86400
	return client.Config{
		Host: h,
		Projects: []project.Spec{
			{Name: "longjobs", Share: 100, Apps: []project.AppSpec{
				cpuApp("long", Scenario3LongJobSecs, 0, 1.5*Scenario3LongJobSecs),
			}},
			{Name: "normal", Share: 100, Apps: []project.AppSpec{
				cpuApp("normal", 1000, 50, 10*86400),
			}},
		},
		JobSched:    sched.JSGlobal, // the paper's JS-REC
		JobFetch:    fetch.JFHysteresis,
		RECHalfLife: halfLife,
		Duration:    60 * 86400, // several long-job lengths
		Seed:        seed,
	}
}

// Scenario4 is "CPU and GPU; twenty projects with varying job types".
func Scenario4(jf fetch.PolicyKind, seed int64) client.Config {
	h := host.StdHost(4, 1e9, 1, 10e9)
	h.Prefs.MinQueue = 0.1 * 86400
	h.Prefs.MaxQueue = 0.6 * 86400
	var projects []project.Spec
	for i := 0; i < 20; i++ {
		mean := 300 * float64(1+i%7) // runtimes from 5 min to 35 min
		bound := mean * 50
		var apps []project.AppSpec
		switch i % 4 {
		case 0:
			apps = []project.AppSpec{gpuApp("gpu", mean/2, mean/20, bound)}
		case 1:
			apps = []project.AppSpec{
				cpuApp("cpu", mean, mean/10, bound),
				gpuApp("gpu", mean/2, mean/20, bound),
			}
		default:
			apps = []project.AppSpec{cpuApp("cpu", mean, mean/10, bound)}
		}
		projects = append(projects, project.Spec{
			Name:  fmt.Sprintf("proj%02d", i),
			Share: 100,
			Apps:  apps,
		})
	}
	return client.Config{
		Host:     h,
		Projects: projects,
		JobSched: sched.JSGlobal,
		JobFetch: jf,
		Duration: 10 * 86400,
		Seed:     seed,
	}
}

// Figure1 reproduces the paper's Figure 1: on a host with a 10 GFLOPS
// CPU and a 20 GFLOPS GPU, projects A (CPU+GPU jobs) and B (GPU only)
// with equal shares should each receive 15 GFLOPS — A gets 100% of the
// CPU plus 25% of the GPU, B gets 75% of the GPU. The emulator is run
// for 10 days and the achieved per-device throughput is reported.
func Figure1(ctx context.Context, seeds []int64, opts ...runner.Option) (*Figure, error) {
	fig := &Figure{
		ID:     "fig1",
		Title:  "Resource share applies to combined processing resources",
		XLabel: "project",
		YLabel: "achieved GFLOPS",
		Labels: []string{"CPU", "GPU", "total"},
		X:      []float64{0, 1},
		Y:      map[string][]float64{"CPU": {0, 0}, "GPU": {0, 0}, "total": {0, 0}},
		Notes:  "expect A=10+5=15, B=0+15=15",
	}
	h := func(seed int64) client.Config {
		hh := host.StdHost(1, 10e9, 1, 20e9)
		hh.Prefs.MinQueue = 0.05 * 86400
		hh.Prefs.MaxQueue = 0.25 * 86400
		return client.Config{
			Host: hh,
			Projects: []project.Spec{
				{Name: "A", Share: 100, Apps: []project.AppSpec{
					cpuApp("cpu", 1000, 0, 86400),
					gpuApp("gpu", 500, 0, 86400),
				}},
				{Name: "B", Share: 100, Apps: []project.AppSpec{
					gpuApp("gpu", 500, 0, 86400),
				}},
			},
			JobSched: sched.JSGlobal,
			JobFetch: fetch.JFHysteresis,
			Duration: 10 * 86400,
			Seed:     seed,
		}
	}
	cmp, err := harness.Compare(ctx, []harness.Variant{{Label: "fig1", Make: h}}, seeds, opts...)
	if err != nil {
		return nil, err
	}
	agg := cmp.Aggs["fig1"]
	for _, m := range agg.Raw {
		dur := 10 * 86400.0
		for p := 0; p < 2; p++ {
			cpu := m.UsedByProjectType[p][host.CPU] / dur / 1e9
			gpu := m.UsedByProjectType[p][host.NvidiaGPU] / dur / 1e9
			fig.Y["CPU"][p] += cpu
			fig.Y["GPU"][p] += gpu
			fig.Y["total"][p] += cpu + gpu
		}
	}
	for _, l := range fig.Labels {
		for i := range fig.Y[l] {
			fig.Y[l][i] /= float64(agg.N)
		}
	}
	return fig, nil
}

// Figure2 reproduces the round-robin-simulation illustration: the
// predicted busy-instance step function for a sample workload.
func Figure2() *Figure {
	hw := &host.StdHost(4, 1e9, 1, 10e9).Hardware
	jobs := []*rrsim.Job{
		{Project: 0, Type: host.CPU, Instances: 1, Remaining: 4000, Deadline: 20000},
		{Project: 0, Type: host.CPU, Instances: 1, Remaining: 8000, Deadline: 20000},
		{Project: 1, Type: host.CPU, Instances: 2, Remaining: 3000, Deadline: 30000},
		{Project: 1, Type: host.NvidiaGPU, Instances: 1, Remaining: 2500, Deadline: 30000},
	}
	res := rrsim.Run(rrsim.Input{
		Hardware: hw, Shares: []float64{100, 100},
		HorizonMin: 3600, HorizonMax: 14400,
		Jobs: jobs, Trace: true,
	})
	fig := &Figure{
		ID:     "fig2",
		Title:  "Round-robin simulation: predicted busy instances over time",
		XLabel: "time (s)",
		YLabel: "busy instances",
		Labels: []string{"CPU", "GPU"},
		Y:      map[string][]float64{"CPU": nil, "GPU": nil},
		Notes: fmt.Sprintf("SAT(CPU)=%.0f SHORTFALL_max(CPU)=%.0f SAT(GPU)=%.0f SHORTFALL_max(GPU)=%.0f",
			res.Saturated[host.CPU], res.ShortfallMax[host.CPU],
			res.Saturated[host.NvidiaGPU], res.ShortfallMax[host.NvidiaGPU]),
	}
	for _, st := range res.Trace {
		fig.X = append(fig.X, st.Start)
		fig.Y["CPU"] = append(fig.Y["CPU"], st.Busy[host.CPU])
		fig.Y["GPU"] = append(fig.Y["GPU"], st.Busy[host.NvidiaGPU])
	}
	return fig
}

// Figure3 reproduces "a job-scheduling policy that incorporates
// deadlines wastes less processing time": wasted fraction vs project
// 1's latency bound (1000–2000 s for 1000 s jobs) under JS-WRR,
// JS-LOCAL and JS-GLOBAL in scenario 1.
func Figure3(ctx context.Context, seeds []int64, opts ...runner.Option) (*Figure, error) {
	bounds := []float64{1000, 1100, 1200, 1400, 1600, 1800, 2000}
	variants := func(x float64) []harness.Variant {
		return []harness.Variant{
			{Label: "JS-WRR", Make: func(s int64) client.Config { return Scenario1(x, sched.JSWRR, s) }},
			{Label: "JS-LOCAL", Make: func(s int64) client.Config { return Scenario1(x, sched.JSLocal, s) }},
			{Label: "JS-GLOBAL", Make: func(s int64) client.Config { return Scenario1(x, sched.JSGlobal, s) }},
		}
	}
	sweep, err := harness.Sweep(ctx, "latency_bound", bounds, variants, seeds, opts...)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "fig3",
		Title:  "Deadline scheduling reduces wasted processing (scenario 1)",
		XLabel: "latency bound (s)",
		YLabel: "wasted fraction",
		Labels: []string{"JS-WRR", "JS-LOCAL", "JS-GLOBAL"},
		X:      bounds,
		Y:      map[string][]float64{},
	}
	for _, l := range fig.Labels {
		_, ys := sweep.Series(l, "wasted")
		fig.Y[l] = ys
	}
	return fig, nil
}

// Figure4 reproduces "global accounting reduces share violation":
// share violation (and idle fraction for context) for JS-LOCAL vs
// JS-GLOBAL in scenario 2.
func Figure4(ctx context.Context, seeds []int64, opts ...runner.Option) (*Figure, error) {
	cmp, err := harness.Compare(ctx, []harness.Variant{
		{Label: "JS-LOCAL", Make: func(s int64) client.Config { return Scenario2(sched.JSLocal, s) }},
		{Label: "JS-GLOBAL", Make: func(s int64) client.Config { return Scenario2(sched.JSGlobal, s) }},
	}, seeds, opts...)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "fig4",
		Title:  "Global resource-share accounting reduces share violation (scenario 2)",
		XLabel: "metric [0=violation 1=idle 2=wasted]",
		YLabel: "value",
		Labels: []string{"JS-LOCAL", "JS-GLOBAL"},
		X:      []float64{0, 1, 2},
		Y:      map[string][]float64{},
	}
	for _, l := range fig.Labels {
		agg := cmp.Aggs[l]
		fig.Y[l] = []float64{
			agg.MetricByName("share_violation"),
			agg.MetricByName("idle"),
			agg.MetricByName("wasted"),
		}
	}
	return fig, nil
}

// Figure5 reproduces "job-fetch hysteresis reduces scheduler RPCs":
// RPCs/job and monotony for JF-ORIG vs JF-HYSTERESIS in scenario 4,
// plus the JF-SPREAD hybrid (§6.2 "other policy alternatives") between
// them.
func Figure5(ctx context.Context, seeds []int64, opts ...runner.Option) (*Figure, error) {
	cmp, err := harness.Compare(ctx, []harness.Variant{
		{Label: "JF-ORIG", Make: func(s int64) client.Config { return Scenario4(fetch.JFOrig, s) }},
		{Label: "JF-HYSTERESIS", Make: func(s int64) client.Config { return Scenario4(fetch.JFHysteresis, s) }},
		{Label: "JF-SPREAD", Make: func(s int64) client.Config { return Scenario4(fetch.JFSpread, s) }},
	}, seeds, opts...)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "fig5",
		Title:  "Fetch hysteresis reduces RPCs per job, raises monotony (scenario 4)",
		XLabel: "metric [0=rpcs_per_job 1=monotony 2=idle]",
		YLabel: "value",
		Labels: []string{"JF-ORIG", "JF-HYSTERESIS", "JF-SPREAD"},
		X:      []float64{0, 1, 2},
		Y:      map[string][]float64{},
	}
	for _, l := range fig.Labels {
		agg := cmp.Aggs[l]
		fig.Y[l] = []float64{
			agg.MetricByName("rpcs_per_job"),
			agg.MetricByName("monotony"),
			agg.MetricByName("idle"),
		}
	}
	return fig, nil
}

// Figure6 reproduces "credit-estimate half-life affects resource share
// violation": share violation vs REC half-life A in scenario 3.
func Figure6(ctx context.Context, seeds []int64, opts ...runner.Option) (*Figure, error) {
	halfLives := []float64{
		0.1 * Scenario3LongJobSecs,
		0.3 * Scenario3LongJobSecs,
		1 * Scenario3LongJobSecs,
		3 * Scenario3LongJobSecs,
		10 * Scenario3LongJobSecs,
	}
	variants := func(x float64) []harness.Variant {
		return []harness.Variant{
			{Label: "JS-REC", Make: func(s int64) client.Config { return Scenario3(x, s) }},
		}
	}
	sweep, err := harness.Sweep(ctx, "half_life", halfLives, variants, seeds, opts...)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "fig6",
		Title:  "Longer REC half-life reduces share violation with long jobs (scenario 3)",
		XLabel: "half-life (s)",
		YLabel: "share violation",
		Labels: []string{"JS-REC"},
		X:      halfLives,
		Y:      map[string][]float64{},
	}
	_, ys := sweep.Series("JS-REC", "share_violation")
	fig.Y["JS-REC"] = ys
	return fig, nil
}

// Entry is one figure of the registry: its ID (the bcectl command that
// prints it) and its generator, which runs on the runner engine under
// ctx with the given batch options.
type Entry struct {
	ID  string
	Gen func(ctx context.Context, seeds []int64, opts ...runner.Option) (*Figure, error)
}

// All lists every figure in print order: the paper's fig1–fig6, then
// the ext-* experiments on the repository's extensions.
func All() []Entry {
	return []Entry{
		{"fig1", Figure1},
		{"fig2", func(context.Context, []int64, ...runner.Option) (*Figure, error) { return Figure2(), nil }},
		{"fig3", Figure3},
		{"fig4", Figure4},
		{"fig5", Figure5},
		{"fig6", Figure6},
		{"ext-transfer", ExtTransfer},
		{"ext-fleet", ExtFleet},
		{"ext-server", ExtServer},
	}
}

// ByID returns the registry entry for one figure.
func ByID(id string) (Entry, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("experiments: unknown figure %q", id)
}
