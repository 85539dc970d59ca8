package client

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"bce/internal/fetch"
	"bce/internal/host"
	"bce/internal/job"
	"bce/internal/project"
	"bce/internal/sched"
)

func cpuApp(mean, bound float64) project.AppSpec {
	return project.AppSpec{
		Name:             "cpu",
		Usage:            job.Usage{AvgCPUs: 1, MemBytes: 100e6},
		MeanDuration:     mean,
		LatencyBound:     bound,
		CheckpointPeriod: 60,
	}
}

func gpuApp(mean, bound float64) project.AppSpec {
	return project.AppSpec{
		Name:             "gpu",
		Usage:            job.Usage{AvgCPUs: 0.2, GPUType: host.NvidiaGPU, GPUUsage: 1, MemBytes: 100e6},
		MeanDuration:     mean,
		LatencyBound:     bound,
		CheckpointPeriod: 60,
	}
}

// smallQueueHost returns a host with short queue preferences so tests
// run quickly and deterministically.
func smallQueueHost(ncpu int) *host.Host {
	h := host.StdHost(ncpu, 1e9, 0, 0)
	h.Prefs.MinQueue = 1200
	h.Prefs.MaxQueue = 3600
	return h
}

func baseConfig(h *host.Host, projects ...project.Spec) Config {
	return Config{
		Host:     h,
		Projects: projects,
		JobSched: sched.JSLocal,
		JobFetch: fetch.JFHysteresis,
		Duration: 2 * 86400,
		Seed:     1,
	}
}

func TestValidateConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{Host: smallQueueHost(1)}); err == nil {
		t.Fatal("config without projects accepted")
	}
	bad := baseConfig(smallQueueHost(1), project.Spec{Name: "p", Share: 0})
	if _, err := New(bad); err == nil {
		t.Fatal("invalid project accepted")
	}
}

// TestDeadlineMarginSentinel pins the Config.DeadlineMargin encoding:
// zero is "use the default", negative is "exactly zero margin", and
// positive values pass through.
func TestDeadlineMarginSentinel(t *testing.T) {
	cases := []struct {
		in, want float64
	}{
		{0, DefaultDeadlineMargin},
		{ZeroDeadlineMargin, 0},
		{-300, 0}, // any negative value means exactly zero
		{60, 60},
	}
	for _, tc := range cases {
		got := (Config{DeadlineMargin: tc.in}).withDefaults().DeadlineMargin
		if got != tc.want {
			t.Errorf("DeadlineMargin %v resolved to %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestSingleProjectKeepsCPUBusy(t *testing.T) {
	cfg := baseConfig(smallQueueHost(2),
		project.Spec{Name: "p0", Share: 1, Apps: []project.AppSpec{cpuApp(1000, 86400)}})
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.CompletedJobs < 100 {
		t.Fatalf("completed %d jobs over 2 days on 2 CPUs, want >= 100", m.CompletedJobs)
	}
	if m.IdleFraction > 0.05 {
		t.Fatalf("idle = %v, want near 0 with ample work", m.IdleFraction)
	}
	if m.WastedFraction > 0.01 {
		t.Fatalf("wasted = %v, want ~0 with loose deadlines", m.WastedFraction)
	}
	if m.MissedJobs != 0 {
		t.Fatalf("missed %d deadlines with huge latency bound", m.MissedJobs)
	}
}

func TestEqualSharesSplitEvenly(t *testing.T) {
	cfg := baseConfig(smallQueueHost(2),
		project.Spec{Name: "a", Share: 1, Apps: []project.AppSpec{cpuApp(1000, 86400)}},
		project.Spec{Name: "b", Share: 1, Apps: []project.AppSpec{cpuApp(1000, 86400)}})
	cfg.Duration = 4 * 86400
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.ShareViolation > 0.15 {
		t.Fatalf("share violation %v for equal shares, want small", m.ShareViolation)
	}
	frac := m.UsedByProject[0] / (m.UsedByProject[0] + m.UsedByProject[1])
	if frac < 0.35 || frac > 0.65 {
		t.Fatalf("project 0 got %.2f of processing, want ~0.5", frac)
	}
}

func TestUnequalSharesRespected(t *testing.T) {
	cfg := baseConfig(smallQueueHost(1),
		project.Spec{Name: "big", Share: 3, Apps: []project.AppSpec{cpuApp(500, 86400)}},
		project.Spec{Name: "small", Share: 1, Apps: []project.AppSpec{cpuApp(500, 86400)}})
	cfg.Duration = 4 * 86400
	c, _ := New(cfg)
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	frac := m.UsedByProject[0] / (m.UsedByProject[0] + m.UsedByProject[1])
	if frac < 0.6 || frac > 0.9 {
		t.Fatalf("share-3 project got %.2f, want ~0.75", frac)
	}
}

func TestGPUAndCPUBothUsed(t *testing.T) {
	h := host.StdHost(4, 1e9, 1, 10e9)
	h.Prefs.MinQueue = 1200
	h.Prefs.MaxQueue = 3600
	cfg := baseConfig(h,
		project.Spec{Name: "cpu", Share: 1, Apps: []project.AppSpec{cpuApp(1000, 86400)}},
		project.Spec{Name: "gpu", Share: 1, Apps: []project.AppSpec{gpuApp(500, 86400)}})
	c, _ := New(cfg)
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.UsedByProject[0] == 0 || m.UsedByProject[1] == 0 {
		t.Fatalf("one side starved: %v", m.UsedByProject)
	}
	if m.IdleFraction > 0.1 {
		t.Fatalf("idle %v with both device types supplied", m.IdleFraction)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *Result {
		cfg := baseConfig(smallQueueHost(2),
			project.Spec{Name: "a", Share: 1, Apps: []project.AppSpec{cpuApp(700, 7000)}},
			project.Spec{Name: "b", Share: 2, Apps: []project.AppSpec{cpuApp(900, 86400)}})
		cfg.Duration = 86400
		c, _ := New(cfg)
		res, err := c.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	if a.Metrics.Values() != b.Metrics.Values() ||
		a.Metrics.CompletedJobs != b.Metrics.CompletedJobs ||
		a.Metrics.RPCs != b.Metrics.RPCs ||
		a.Metrics.UsedFLOPSsec != b.Metrics.UsedFLOPSsec {
		t.Fatalf("same seed, different results:\n%v\n%v", a.Metrics, b.Metrics)
	}
	if a.Events != b.Events {
		t.Fatalf("event counts differ: %d vs %d", a.Events, b.Events)
	}
}

func TestHostAvailabilityReducesThroughput(t *testing.T) {
	run := func(avail host.Availability) int {
		h := smallQueueHost(1)
		h.Avail = avail
		cfg := baseConfig(h,
			project.Spec{Name: "p", Share: 1, Apps: []project.AppSpec{cpuApp(1000, 86400*5)}})
		cfg.Duration = 4 * 86400
		c, _ := New(cfg)
		res, err := c.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.CompletedJobs
	}
	alwaysOn := run(host.AlwaysOn())
	var half host.Availability
	half.Spec[host.Compute] = host.AvailSpec{MeanOn: 7200, MeanOff: 7200}
	halfOn := run(half)
	if halfOn >= alwaysOn {
		t.Fatalf("50%% availability completed %d >= always-on %d", halfOn, alwaysOn)
	}
	ratio := float64(halfOn) / float64(alwaysOn)
	if ratio < 0.3 || ratio > 0.75 {
		t.Fatalf("throughput ratio %v, want ~0.5", ratio)
	}
}

func TestTightDeadlinesWasteUnderWRR(t *testing.T) {
	// Latency bound == runtime: with two competing projects, WRR runs
	// project 1's jobs at half speed and every one misses.
	mk := func(policy sched.Policy) float64 {
		h := smallQueueHost(1)
		h.Prefs.MinQueue = 600
		h.Prefs.MaxQueue = 1200
		cfg := baseConfig(h,
			project.Spec{Name: "tight", Share: 1, Apps: []project.AppSpec{cpuApp(1000, 1100)}},
			project.Spec{Name: "loose", Share: 1, Apps: []project.AppSpec{cpuApp(1000, 864000)}})
		cfg.JobSched = policy
		cfg.Duration = 86400
		c, _ := New(cfg)
		res, err := c.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.WastedFraction
	}
	wrr := mk(sched.JSWRR)
	edf := mk(sched.JSLocal)
	if edf >= wrr {
		t.Fatalf("deadline-aware policy wasted %v >= WRR %v", edf, wrr)
	}
}

func TestMessageLogProduced(t *testing.T) {
	var sb strings.Builder
	cfg := baseConfig(smallQueueHost(1),
		project.Spec{Name: "p", Share: 1, Apps: []project.AppSpec{cpuApp(1000, 86400)}})
	cfg.Duration = 7200
	cfg.Log = &sb
	c, _ := New(cfg)
	if _, err := c.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	log := sb.String()
	for _, want := range []string{"RPC to project", "got ", "start ", "completed "} {
		if !strings.Contains(log, want) {
			t.Fatalf("message log missing %q:\n%s", want, log[:minInt(len(log), 2000)])
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestTimelineRecorded(t *testing.T) {
	cfg := baseConfig(smallQueueHost(1),
		project.Spec{Name: "p", Share: 1, Apps: []project.AppSpec{cpuApp(1000, 86400)}})
	cfg.Duration = 7200
	cfg.RecordTimeline = true
	c, _ := New(cfg)
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeline == nil || len(res.Timeline.Segments) == 0 {
		t.Fatal("no timeline segments recorded")
	}
	lo, hi := res.Timeline.Span()
	if lo < 0 || hi > 7200 {
		t.Fatalf("timeline span [%v,%v] outside run", lo, hi)
	}
}

func TestProjectDowntimeBackoff(t *testing.T) {
	spec := project.Spec{
		Name: "flaky", Share: 1,
		Apps:     []project.AppSpec{cpuApp(1000, 86400)},
		Downtime: host.AvailSpec{MeanOn: 3600, MeanOff: 3600},
	}
	cfg := baseConfig(smallQueueHost(1), spec)
	cfg.Duration = 2 * 86400
	c, _ := New(cfg)
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Still makes progress despite ~50% downtime.
	if res.Metrics.CompletedJobs == 0 {
		t.Fatal("no jobs completed with a flaky project")
	}
}

func TestRPCAccountingMatchesJobFlow(t *testing.T) {
	cfg := baseConfig(smallQueueHost(2),
		project.Spec{Name: "p", Share: 1, Apps: []project.AppSpec{cpuApp(2000, 86400)}})
	cfg.Duration = 86400
	c, _ := New(cfg)
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.RPCs == 0 {
		t.Fatal("no RPCs recorded")
	}
	if res.Dispatched[0] < m.CompletedJobs {
		t.Fatalf("dispatched %d < completed %d", res.Dispatched[0], m.CompletedJobs)
	}
}

func TestHysteresisFewerRPCs(t *testing.T) {
	mk := func(kind fetch.PolicyKind) float64 {
		h := smallQueueHost(2)
		h.Prefs.MinQueue = 3600
		h.Prefs.MaxQueue = 4 * 3600
		cfg := baseConfig(h,
			project.Spec{Name: "a", Share: 1, Apps: []project.AppSpec{cpuApp(600, 864000)}},
			project.Spec{Name: "b", Share: 1, Apps: []project.AppSpec{cpuApp(600, 864000)}})
		cfg.JobFetch = kind
		cfg.Duration = 2 * 86400
		c, _ := New(cfg)
		res, err := c.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.RPCsPerJob
	}
	orig := mk(fetch.JFOrig)
	hyst := mk(fetch.JFHysteresis)
	if hyst >= orig {
		t.Fatalf("hysteresis RPCs/job %v >= orig %v", hyst, orig)
	}
}

func TestMetricsInRange(t *testing.T) {
	cfg := baseConfig(smallQueueHost(4),
		project.Spec{Name: "a", Share: 2, Apps: []project.AppSpec{cpuApp(500, 2000)}},
		project.Spec{Name: "b", Share: 1, Apps: []project.AppSpec{cpuApp(3000, 86400)}})
	cfg.Duration = 86400
	c, _ := New(cfg)
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Metrics.Values() {
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Fatalf("metric %d = %v out of [0,1]", i, v)
		}
	}
}

func TestAvailabilityTraceReplay(t *testing.T) {
	// 6 h on / 6 h off trace: throughput should be about half of an
	// always-on host, and the off periods should show as non-available
	// capacity rather than idle time.
	h := smallQueueHost(1)
	h.Avail.Trace[host.Compute] = []host.Period{
		{Duration: 6 * 3600, On: true},
		{Duration: 6 * 3600, On: false},
	}
	cfg := baseConfig(h,
		project.Spec{Name: "p", Share: 1, Apps: []project.AppSpec{cpuApp(1000, 864000)}})
	cfg.Duration = 4 * 86400
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	wantAvail := 0.5 * 4 * 86400 * 1e9
	if math.Abs(m.AvailFLOPSsec-wantAvail)/wantAvail > 0.01 {
		t.Fatalf("available capacity %v, want ~%v (half the run)", m.AvailFLOPSsec, wantAvail)
	}
	if m.IdleFraction > 0.05 {
		t.Fatalf("idle %v, want near 0 (off time is not idle time)", m.IdleFraction)
	}
	if m.CompletedJobs < 100 {
		t.Fatalf("completed %d jobs, want substantial progress during on periods", m.CompletedJobs)
	}
}

func TestTraceStartingOff(t *testing.T) {
	h := smallQueueHost(1)
	h.Avail.Trace[host.Compute] = []host.Period{
		{Duration: 3600, On: false},
		{Duration: 3600, On: true},
	}
	cfg := baseConfig(h,
		project.Spec{Name: "p", Share: 1, Apps: []project.AppSpec{cpuApp(600, 864000)}})
	cfg.Duration = 2 * 3600
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Only the second hour is available.
	want := 3600 * 1e9
	if math.Abs(res.Metrics.AvailFLOPSsec-want)/want > 0.02 {
		t.Fatalf("available capacity %v, want ~%v", res.Metrics.AvailFLOPSsec, want)
	}
}

func TestFileTransfersDelayExecution(t *testing.T) {
	// 100 MB inputs over a 10 Mbps-ish link (1.25e6 B/s): each download
	// takes 80 s, so throughput should drop measurably versus an
	// infinite link, and idle time should appear while downloads block.
	mk := func(downBps float64) (int, float64) {
		h := smallQueueHost(1)
		h.Hardware.DownloadBps = downBps
		app := cpuApp(600, 864000)
		app.InputBytes = 100e6
		cfg := baseConfig(h, project.Spec{Name: "p", Share: 1, Apps: []project.AppSpec{app}})
		cfg.Duration = 86400
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.CompletedJobs, res.Metrics.IdleFraction
	}
	fastJobs, _ := mk(0)      // infinite link
	slowJobs, _ := mk(1.25e5) // 1 Mbps: 800 s per 100 MB input > job length
	if slowJobs >= fastJobs {
		t.Fatalf("slow link completed %d >= fast link %d", slowJobs, fastJobs)
	}
	if slowJobs == 0 {
		t.Fatal("no progress at all on the slow link")
	}
}

func TestUploadsGateReporting(t *testing.T) {
	h := smallQueueHost(1)
	h.Hardware.UploadBps = 1e5
	app := cpuApp(600, 864000)
	app.OutputBytes = 50e6 // 500 s per upload
	cfg := baseConfig(h, project.Spec{Name: "p", Share: 1, Apps: []project.AppSpec{app}})
	cfg.Duration = 4 * 3600
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.CompletedJobs == 0 {
		t.Fatal("no jobs completed")
	}
	// Execution is not blocked by uploads (they overlap).
	if res.Metrics.IdleFraction > 0.2 {
		t.Fatalf("idle %v; uploads should not stall the CPU", res.Metrics.IdleFraction)
	}
}

func TestLLFEndToEnd(t *testing.T) {
	cfg := baseConfig(smallQueueHost(2),
		project.Spec{Name: "a", Share: 1, Apps: []project.AppSpec{cpuApp(800, 4000)}},
		project.Spec{Name: "b", Share: 1, Apps: []project.AppSpec{cpuApp(800, 864000)}})
	cfg.JobSched = sched.JSLLF
	cfg.Duration = 86400
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.CompletedJobs == 0 {
		t.Fatal("JS-LLF run completed nothing")
	}
	if res.Metrics.WastedFraction > 0.3 {
		t.Fatalf("JS-LLF wasted %v; laxity scheduling should meet most deadlines", res.Metrics.WastedFraction)
	}
}

// runRRSim's job array and pointer slice carry the //bce:allocok reason
// "amortized grow": a queue that grows one task per pass must
// reallocate each O(log n) times (⌈log₂ 2000⌉ + 2 here), not at every
// new maximum.
func TestRRScratchGrowsGeometrically(t *testing.T) {
	const queue, maxGrowths = 2000, 13
	c, err := New(baseConfig(smallQueueHost(4),
		project.Spec{Name: "p0", Share: 1, Apps: []project.AppSpec{cpuApp(600, 86400)}}))
	if err != nil {
		t.Fatal(err)
	}
	var jobGrowths, ptrGrowths int
	lastJobs, lastPtrs := cap(c.rrJobs), cap(c.rrJobPtrs)
	for i := 0; i < queue; i++ {
		c.tasks = append(c.tasks, &job.Task{
			Name: "t", Usage: job.Usage{AvgCPUs: 1},
			Duration: 600, EstDuration: 600, Deadline: 86400, CheckpointPeriod: 60,
		})
		c.runRRSim()
		if n := cap(c.rrJobs); n != lastJobs {
			jobGrowths, lastJobs = jobGrowths+1, n
		}
		if n := cap(c.rrJobPtrs); n != lastPtrs {
			ptrGrowths, lastPtrs = ptrGrowths+1, n
		}
	}
	if jobGrowths > maxGrowths || ptrGrowths > maxGrowths {
		t.Fatalf("while the queue grew to %d tasks, rrJobs reallocated %d times and rrJobPtrs %d, want at most %d each",
			queue, jobGrowths, ptrGrowths, maxGrowths)
	}
}

// cancelOnFirstLine is a Config.Log writer that cancels a run's
// context on the first line it gets, noting how many events had fired
// by then, and counts every line.
type cancelOnFirstLine struct {
	c      *Client
	cancel context.CancelFunc
	lines  int
	fired  uint64
}

func (w *cancelOnFirstLine) Write(p []byte) (int, error) {
	if w.lines == 0 {
		w.fired = w.c.sim.Fired()
		w.cancel()
	}
	w.lines++
	return len(p), nil
}

// TestRunContextStopsAtNextEvent: a context canceled inside an event
// stops the run before the next one, however cheap events are. The
// run's Log writer cancels on its first line, so the error names the
// count of events fired by then and the writer gets no second line.
func TestRunContextStopsAtNextEvent(t *testing.T) {
	cfg := baseConfig(smallQueueHost(2),
		project.Spec{Name: "p0", Share: 1, Apps: []project.AppSpec{cpuApp(1000, 86400)}})
	w := &cancelOnFirstLine{}
	cfg.Log = w
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w.c, w.cancel = c, cancel
	res, err := c.RunContext(ctx)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("RunContext = %v, %v; want no result and context.Canceled", res, err)
	}
	if want := fmt.Sprintf("after %d events", w.fired); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the %d events fired by the first log line", err, w.fired)
	}
	if w.lines != 1 {
		t.Errorf("the log got %d lines; want the run to stop at the event that wrote the first", w.lines)
	}
}
