package client

// Failure-injection tests: the emulator must behave sensibly when the
// environment misbehaves — projects down for the whole run, hosts that
// are almost never available, servers that refuse everything, apps
// that never checkpoint, estimate errors, and degenerate queues.

import (
	"context"
	"math"
	"strings"
	"testing"

	"bce/internal/fetch"
	"bce/internal/host"
	"bce/internal/project"
	"bce/internal/sched"
)

func TestProjectDownForever(t *testing.T) {
	spec := project.Spec{
		Name: "dead", Share: 1,
		Apps: []project.AppSpec{cpuApp(1000, 86400)},
		// Mean up period of a millisecond, down for ~forever.
		Downtime: host.AvailSpec{MeanOn: 1e-3, MeanOff: 1e12},
	}
	cfg := baseConfig(smallQueueHost(1), spec)
	cfg.Duration = 86400
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.CompletedJobs != 0 {
		t.Fatalf("dead project completed %d jobs", m.CompletedJobs)
	}
	if m.IdleFraction < 0.99 {
		t.Fatalf("idle %v, want ~1 (nothing to run)", m.IdleFraction)
	}
	// Backoff must bound the RPC count: without it the client would
	// hammer the server every minute (1440 RPCs/day).
	if m.RPCs > 300 {
		t.Fatalf("%d RPCs against a dead project; backoff not working", m.RPCs)
	}
}

func TestProjectNeverHasWork(t *testing.T) {
	spec := project.Spec{
		Name: "dry", Share: 1,
		Apps:     []project.AppSpec{cpuApp(1000, 86400)},
		WorkGaps: host.AvailSpec{MeanOn: 1e-3, MeanOff: 1e12},
	}
	cfg := baseConfig(smallQueueHost(1), spec)
	cfg.Duration = 86400
	c, _ := New(cfg)
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The work-gap process opens with one (here microscopic) has-work
	// period, so the very first RPC may net a batch; after that the
	// project stays dry for the whole run.
	if res.Metrics.CompletedJobs > 10 {
		t.Fatalf("dry project completed %d jobs, want at most the first batch", res.Metrics.CompletedJobs)
	}
	if res.Metrics.RPCs > 300 {
		t.Fatalf("%d RPCs against a dry project", res.Metrics.RPCs)
	}
}

func TestHostAlmostNeverAvailable(t *testing.T) {
	h := smallQueueHost(1)
	h.Avail.Spec[host.Compute] = host.AvailSpec{MeanOn: 60, MeanOff: 6000}
	cfg := baseConfig(h,
		project.Spec{Name: "p", Share: 1, Apps: []project.AppSpec{cpuApp(100, 864000)}})
	cfg.Duration = 2 * 86400
	c, _ := New(cfg)
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	// ~1% availability: some trickle of completions, capacity ~1%.
	if m.AvailFLOPSsec > 0.05*2*86400*1e9 {
		t.Fatalf("available capacity %v too high for ~1%% availability", m.AvailFLOPSsec)
	}
	for _, v := range m.Values() {
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Fatalf("metric out of range under extreme churn: %v", m)
		}
	}
}

func TestServerRefusesEverything(t *testing.T) {
	// SimpleCheck against jobs whose estimate exceeds the bound: the
	// server refuses every job; the client must keep backing off.
	app := cpuApp(1000, 500) // estimate 1000 > bound 500
	spec := project.Spec{Name: "picky", Share: 1, Apps: []project.AppSpec{app}, Check: project.SimpleCheck}
	cfg := baseConfig(smallQueueHost(1), spec)
	cfg.Duration = 86400
	c, _ := New(cfg)
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.CompletedJobs != 0 {
		t.Fatal("refused jobs completed anyway")
	}
	if res.Refused[0] == 0 {
		t.Fatal("server never refused")
	}
	if res.Metrics.RPCs > 300 {
		t.Fatalf("%d RPCs against an always-refusing server", res.Metrics.RPCs)
	}
}

func TestNeverCheckpointingAppLosesWorkOnSuspend(t *testing.T) {
	h := smallQueueHost(1)
	// Availability cycles shorter than the job: an app that never
	// checkpoints loses everything at each suspension and never
	// finishes; one that checkpoints finishes fine.
	h.Avail.Spec[host.Compute] = host.AvailSpec{MeanOn: 1800, MeanOff: 600}
	mk := func(checkpoint float64) (int, float64) {
		app := cpuApp(3600, 8640000)
		app.CheckpointPeriod = checkpoint
		cfg := baseConfig(h,
			project.Spec{Name: "p", Share: 1, Apps: []project.AppSpec{app}})
		cfg.Duration = 2 * 86400
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.CompletedJobs, res.Metrics.LostFLOPSsec
	}
	withCP, lostCP := mk(60)
	without, lostNo := mk(0)
	if without >= withCP {
		t.Fatalf("non-checkpointing app completed %d >= checkpointing %d", without, withCP)
	}
	if lostNo <= lostCP {
		t.Fatalf("non-checkpointing app lost %v <= checkpointing %v", lostNo, lostCP)
	}
}

func TestEstimateErrorsStillConverge(t *testing.T) {
	app := cpuApp(1000, 86400)
	app.EstErrBias = 3 // server thinks jobs are 3× longer
	app.EstErrSigma = 0.5
	cfg := baseConfig(smallQueueHost(2),
		project.Spec{Name: "p", Share: 1, Apps: []project.AppSpec{app}})
	cfg.Duration = 86400
	c, _ := New(cfg)
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.CompletedJobs < 50 {
		t.Fatalf("completed %d with biased estimates, want steady progress", m.CompletedJobs)
	}
	// Over-estimates make the client under-fetch, but the queue should
	// still keep the CPU mostly busy.
	if m.IdleFraction > 0.3 {
		t.Fatalf("idle %v with 3× over-estimates", m.IdleFraction)
	}
}

func TestZeroShareRejected(t *testing.T) {
	cfg := baseConfig(smallQueueHost(1),
		project.Spec{Name: "p", Share: 0, Apps: []project.AppSpec{cpuApp(100, 1000)}})
	if _, err := New(cfg); err == nil {
		t.Fatal("zero-share project accepted")
	}
}

func TestManyTinyJobs(t *testing.T) {
	// 10-second jobs stress the event loop (thousands of completions
	// and RPC batches).
	h := smallQueueHost(2)
	h.Prefs.MinQueue = 300
	h.Prefs.MaxQueue = 600
	cfg := baseConfig(h,
		project.Spec{Name: "p", Share: 1, MaxJobsPerRPC: 128,
			Apps: []project.AppSpec{cpuApp(10, 86400)}})
	cfg.Duration = 4 * 3600
	c, _ := New(cfg)
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.CompletedJobs < 1000 {
		t.Fatalf("completed %d tiny jobs, want >1000", res.Metrics.CompletedJobs)
	}
	if res.Metrics.WastedFraction > 0.01 {
		t.Fatalf("wasted %v on deadline-free tiny jobs", res.Metrics.WastedFraction)
	}
}

func TestGPUChannelSuspension(t *testing.T) {
	h := host.StdHost(2, 1e9, 1, 10e9)
	h.Prefs.MinQueue = 1200
	h.Prefs.MaxQueue = 3600
	// GPU allowed only half the time; CPU always.
	h.Avail.Spec[host.GPUCompute] = host.AvailSpec{MeanOn: 3600, MeanOff: 3600}
	cfg := baseConfig(h,
		project.Spec{Name: "cpu", Share: 1, Apps: []project.AppSpec{cpuApp(500, 864000)}},
		project.Spec{Name: "gpu", Share: 1, Apps: []project.AppSpec{gpuApp(500, 864000)}})
	cfg.Duration = 2 * 86400
	c, _ := New(cfg)
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	// The GPU project should still get roughly half the GPU's ideal
	// throughput; the CPU side should be unaffected (nearly no idle
	// CPU time).
	gpuIdeal := 10e9 * 2 * 86400.0
	frac := m.UsedByProject[1] / gpuIdeal
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("GPU project got %.2f of ideal, want ~0.5 (GPU half-suspended)", frac)
	}
}

func TestNetworkOutagesDelayFetch(t *testing.T) {
	h := smallQueueHost(1)
	h.Prefs.MinQueue = 300
	h.Prefs.MaxQueue = 600
	h.Avail.Spec[host.Network] = host.AvailSpec{MeanOn: 600, MeanOff: 3600}
	cfg := baseConfig(h,
		project.Spec{Name: "p", Share: 1, Apps: []project.AppSpec{cpuApp(300, 864000)}})
	cfg.Duration = 86400
	c, _ := New(cfg)
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	// With the network mostly down and a tiny queue, the host starves
	// between connections: idle well above the always-connected case.
	if m.IdleFraction < 0.2 {
		t.Fatalf("idle %v; expected starvation from network outages", m.IdleFraction)
	}
	if m.CompletedJobs == 0 {
		t.Fatal("no jobs at all despite periodic connectivity")
	}
}

func TestWRRWithJFOrigEndToEnd(t *testing.T) {
	// Exercise the remaining policy combination end to end.
	cfg := baseConfig(smallQueueHost(2),
		project.Spec{Name: "a", Share: 2, Apps: []project.AppSpec{cpuApp(700, 864000)}},
		project.Spec{Name: "b", Share: 1, Apps: []project.AppSpec{cpuApp(900, 864000)}})
	cfg.JobSched = sched.JSWRR
	cfg.JobFetch = fetch.JFOrig
	cfg.Duration = 2 * 86400
	c, _ := New(cfg)
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.CompletedJobs == 0 {
		t.Fatal("no jobs completed")
	}
	frac := m.UsedByProject[0] / (m.UsedByProject[0] + m.UsedByProject[1])
	if frac < 0.5 || frac > 0.85 {
		t.Fatalf("share-2 project got %.2f, want ~2/3", frac)
	}
}

func TestSpreadFetchEndToEnd(t *testing.T) {
	cfg := baseConfig(smallQueueHost(2),
		project.Spec{Name: "a", Share: 1, Apps: []project.AppSpec{cpuApp(600, 864000)}},
		project.Spec{Name: "b", Share: 1, Apps: []project.AppSpec{cpuApp(600, 864000)}})
	cfg.JobFetch = fetch.JFSpread
	cfg.Duration = 86400
	c, _ := New(cfg)
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.CompletedJobs == 0 {
		t.Fatal("JF-SPREAD completed nothing")
	}
	if res.Metrics.IdleFraction > 0.1 {
		t.Fatalf("JF-SPREAD idle %v", res.Metrics.IdleFraction)
	}
}

func TestMemoryBoundJobsSerialise(t *testing.T) {
	// Two 5 GB jobs on an 8 GB host (7.2 GB usable): only one runs at a
	// time even with two CPUs free.
	app := cpuApp(1000, 864000)
	app.Usage.MemBytes = 5e9
	cfg := baseConfig(smallQueueHost(2),
		project.Spec{Name: "fat", Share: 1, Apps: []project.AppSpec{app}})
	cfg.Duration = 86400
	c, _ := New(cfg)
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	// One CPU's worth of throughput out of two: idle ≈ 0.5.
	if m.IdleFraction < 0.4 || m.IdleFraction > 0.6 {
		t.Fatalf("idle %v, want ~0.5 (memory-serialised)", m.IdleFraction)
	}
}

func TestLogContainsBackoffOnDeadProject(t *testing.T) {
	var sb strings.Builder
	spec := project.Spec{
		Name: "dead", Share: 1,
		Apps:     []project.AppSpec{cpuApp(1000, 86400)},
		Downtime: host.AvailSpec{MeanOn: 1e-3, MeanOff: 1e12},
	}
	cfg := baseConfig(smallQueueHost(1), spec)
	cfg.Duration = 4 * 3600
	cfg.Log = &sb
	c, _ := New(cfg)
	if _, err := c.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "backoff") {
		t.Fatal("message log missing backoff entries")
	}
}
