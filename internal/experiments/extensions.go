// Appendix experiments: the same figure machinery applied to the
// repository's extensions (paper §6.2 future work), so bcectl can
// regenerate them alongside the paper's figures.
package experiments

import (
	"context"
	"fmt"

	"bce/internal/client"
	"bce/internal/emserver"
	"bce/internal/fetch"
	"bce/internal/fleet"
	"bce/internal/harness"
	"bce/internal/host"
	"bce/internal/job"
	"bce/internal/project"
	"bce/internal/runner"
	"bce/internal/transfer"
)

// ExtTransfer compares the file-transfer ordering policies on a
// slow-link host running urgent big-input jobs next to bulk ones
// (§6.2 "the order in which files are uploaded and downloaded").
// Reported value: deadline misses per emulated day, per policy.
func ExtTransfer(ctx context.Context, seeds []int64, opts ...runner.Option) (*Figure, error) {
	mkCfg := func(policy transfer.Policy, seed int64) client.Config {
		h := host.StdHost(2, 2e9, 0, 0)
		h.Prefs.MinQueue = 3600
		h.Prefs.MaxQueue = 4 * 3600
		h.Hardware.DownloadBps = 1e6
		h.Hardware.UploadBps = 1e6
		urgent := project.AppSpec{
			Name: "urgent", Usage: job.Usage{AvgCPUs: 1, MemBytes: 100e6},
			MeanDuration: 600, LatencyBound: 1800, CheckpointPeriod: 60,
			InputBytes: 300e6, OutputBytes: 5e6,
		}
		bulk := project.AppSpec{
			Name: "bulk", Usage: job.Usage{AvgCPUs: 1, MemBytes: 100e6},
			MeanDuration: 1200, LatencyBound: 86400, CheckpointPeriod: 60,
			InputBytes: 100e6, OutputBytes: 5e6,
		}
		return client.Config{
			Host: h,
			Projects: []project.Spec{
				{Name: "mix", Share: 100, Apps: []project.AppSpec{urgent, bulk}},
			},
			// Hysteresis fetch brings jobs in bursts, so several input
			// files queue on the link at once — which is when the
			// transfer-ordering policy matters.
			JobFetch:       fetch.JFHysteresis,
			TransferPolicy: policy,
			Duration:       2 * 86400,
			Seed:           seed,
		}
	}
	fig := &Figure{
		ID:     "ext-transfer",
		Title:  "Transfer ordering vs deadline misses (file-transfer extension)",
		XLabel: "policy [0=fifo 1=smallest 2=edf]",
		YLabel: "wasted fraction",
		Labels: []string{"wasted", "missed_per_day"},
		X:      []float64{0, 1, 2},
		Y:      map[string][]float64{"wasted": {}, "missed_per_day": {}},
	}
	var vs []harness.Variant
	for _, pol := range []transfer.Policy{transfer.FIFO, transfer.SmallestFirst, transfer.EDF} {
		vs = append(vs, harness.Variant{
			Label: pol.String(),
			Make:  func(s int64) client.Config { return mkCfg(pol, s) },
		})
	}
	cmp, err := harness.Compare(ctx, vs, seeds, opts...)
	if err != nil {
		return nil, err
	}
	for _, v := range vs {
		agg := cmp.Aggs[v.Label]
		var missed float64
		for _, m := range agg.Raw {
			missed += float64(m.MissedJobs)
		}
		fig.Y["wasted"] = append(fig.Y["wasted"], agg.MetricByName("wasted"))
		fig.Y["missed_per_day"] = append(fig.Y["missed_per_day"], missed/float64(len(agg.Raw))/2)
	}
	fig.Notes = "EDF ordering should miss the fewest deadlines; smallest-first the most"
	return fig, nil
}

// ExtFleet compares uniform per-host shares against fleet-planned
// shares (§6.2 "enforcing resource share across a volunteer's hosts").
func ExtFleet(ctx context.Context, seeds []int64, opts ...runner.Option) (*Figure, error) {
	mkFleet := func() *fleet.Fleet {
		mk := func(ncpu int, cpuF float64, ngpu int, gpuF float64) *host.Host {
			h := host.StdHost(ncpu, cpuF, ngpu, gpuF)
			h.Prefs.MinQueue = 1200
			h.Prefs.MaxQueue = 3600
			return h
		}
		cpuA := project.AppSpec{Name: "cpu", Usage: job.Usage{AvgCPUs: 1},
			MeanDuration: 1000, LatencyBound: 864000, CheckpointPeriod: 60}
		gpuA := project.AppSpec{Name: "gpu",
			Usage:        job.Usage{AvgCPUs: 0.2, GPUType: host.NvidiaGPU, GPUUsage: 1},
			MeanDuration: 500, LatencyBound: 864000, CheckpointPeriod: 60}
		return &fleet.Fleet{
			Hosts: []*host.Host{mk(4, 1e9, 1, 10e9), mk(8, 1e9, 0, 0)},
			Projects: []project.Spec{
				{Name: "A", Share: 100, Apps: []project.AppSpec{cpuA, gpuA}},
				{Name: "B", Share: 100, Apps: []project.AppSpec{cpuA}},
			},
		}
	}
	fig := &Figure{
		ID:     "ext-fleet",
		Title:  "Fleet-wide share planning vs per-host enforcement",
		XLabel: "plan [0=uniform 1=planned]",
		YLabel: "global share violation",
		Labels: []string{"violation"},
		X:      []float64{0, 1},
		Y:      map[string][]float64{"violation": {0, 0}},
	}
	for _, seed := range seeds {
		f := mkFleet()
		uni, err := f.EvaluateContext(ctx, fleet.Uniform(f), 2*86400, seed, opts...)
		if err != nil {
			return nil, err
		}
		plan, err := fleet.Optimize(f)
		if err != nil {
			return nil, err
		}
		opt, err := f.EvaluateContext(ctx, plan, 2*86400, seed, opts...)
		if err != nil {
			return nil, err
		}
		fig.Y["violation"][0] += uni.GlobalViolation / float64(len(seeds))
		fig.Y["violation"][1] += opt.GlobalViolation / float64(len(seeds))
	}
	fig.Notes = "planned shares should roughly eliminate the global violation"
	return fig, nil
}

// ExtServer sweeps the replication level of the EmBOINC-style server
// emulation (the §6.1 complement): validated throughput and waste per
// replication policy. Each cell is one sequential server emulation, so
// ctx is checked between cells and the batch options go unused.
func ExtServer(ctx context.Context, seeds []int64, _ ...runner.Option) (*Figure, error) {
	type combo struct {
		label          string
		target, quorum int
	}
	combos := []combo{{"1-of-1", 1, 1}, {"2-of-2", 2, 2}, {"2-of-3", 3, 2}, {"3-of-3", 3, 3}}
	fig := &Figure{
		ID:     "ext-server",
		Title:  "Server-side replication trade-off (EmBOINC-style emulation)",
		XLabel: "policy [0=1of1 1=2of2 2=2of3 3=3of3]",
		YLabel: "value",
		Labels: []string{"validWU_per_day", "waste", "turnaround_h"},
		X:      []float64{0, 1, 2, 3},
		Y: map[string][]float64{
			"validWU_per_day": {}, "waste": {}, "turnaround_h": {},
		},
	}
	for _, c := range combos {
		var thr, waste, turn float64
		for _, seed := range seeds {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("experiments: %s stopped: %w", fig.ID, context.Cause(ctx))
			}
			st := emserver.Run(emserver.Params{
				Seed:           seed,
				NHosts:         150,
				Duration:       6 * 86400,
				TargetNResults: c.target,
				MinQuorum:      c.quorum,
			})
			thr += st.Throughput(6*86400) / float64(len(seeds))
			waste += st.WasteFraction() / float64(len(seeds))
			turn += st.Turnaround.Mean() / 3600 / float64(len(seeds))
		}
		fig.Y["validWU_per_day"] = append(fig.Y["validWU_per_day"], thr)
		fig.Y["waste"] = append(fig.Y["waste"], waste)
		fig.Y["turnaround_h"] = append(fig.Y["turnaround_h"], turn)
	}
	fig.Notes = "2-of-3 trades waste for lower turnaround; quorum growth divides throughput"
	return fig, nil
}
