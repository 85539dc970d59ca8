// Package bce is a BOINC client emulator: a reproduction of the system
// described in David P. Anderson, "Emulating Volunteer Computing
// Scheduling Policies" (IPDPS Workshops / PCGrid 2011).
//
// The emulator runs the BOINC client's scheduling machinery — round-
// robin simulation, debt/REC resource-share accounting, deadline-aware
// job scheduling, and work-fetch policies — inside a discrete-event
// simulation of everything the client interacts with: job execution
// with normally distributed runtimes, host availability as an
// exponential on/off process, network delays, and simplified project
// servers. It reports five figures of merit (idle fraction, wasted
// fraction, resource-share violation, monotony, RPCs per job), each
// scaled to [0,1] where 0 is good.
//
// # Quick start
//
//	s := &bce.Scenario{
//		Name: "two-projects", DurationDays: 10, Seed: 1,
//		Host: bce.HostJSON{NCPU: 4, CPUGFlops: 2.5},
//		Projects: []bce.ProjectJSON{
//			{Name: "a", Share: 100, Apps: []bce.AppJSON{
//				{Name: "app", NCPUs: 1, MeanSecs: 3600, LatencySecs: 86400},
//			}},
//			{Name: "b", Share: 100, Apps: []bce.AppJSON{
//				{Name: "app", NCPUs: 1, MeanSecs: 1800, LatencySecs: 43200},
//			}},
//		},
//	}
//	res, err := bce.Run(s)
//	if err != nil { ... }
//	fmt.Println(res.Metrics)
//
// Policy variants are selected per scenario (Policies field) or, at a
// lower level, via Config. The experiments subpackage regenerates the
// paper's figures; cmd/bce, cmd/bcectl, cmd/scengen and cmd/bceweb are
// the command-line and web frontends.
package bce

import (
	"context"
	"fmt"
	"io"

	"bce/internal/client"
	"bce/internal/metrics"
	"bce/internal/runner"
	"bce/internal/scenario"
	"bce/internal/timeline"
)

// Scenario is a complete emulator input: host, projects, policies.
type Scenario = scenario.Scenario

// HostJSON describes the emulated host.
type HostJSON = scenario.HostJSON

// ProjectJSON describes one attached project.
type ProjectJSON = scenario.ProjectJSON

// AppJSON describes one application's job stream.
type AppJSON = scenario.AppJSON

// AvailJSON parameterises an availability channel (hours on/off).
type AvailJSON = scenario.AvailJSON

// Policies selects the policy variants under test.
type Policies = scenario.Policies

// Config is the low-level emulator configuration (the scenario
// compiled against live host/project objects).
type Config = client.Config

// Metrics is the figures-of-merit report.
type Metrics = metrics.Metrics

// Result is one emulation outcome.
type Result = client.Result

// Timeline is the recorded processor-usage timeline.
type Timeline = timeline.Recorder

// Run emulates the scenario and reports the figures of merit. It is
// RunContext with a background context.
//
//bce:ctxshim convenience wrapper; roots a background context and delegates to the Context variant
func Run(s *Scenario) (*Result, error) { return RunContext(context.Background(), s) }

// RunContext emulates the scenario under ctx: cancellation or timeout
// stops the emulation between simulator events and returns an error
// wrapping the context's cause, so errors.Is(err, context.Canceled)
// reports a canceled run. Panics inside the emulation are recovered
// and surfaced as errors.
func RunContext(ctx context.Context, s *Scenario) (*Result, error) {
	cfg, err := s.Config()
	if err != nil {
		return nil, err
	}
	return RunConfigContext(ctx, cfg)
}

// RunConfigContext emulates a low-level configuration under ctx (see
// RunContext for the cancellation contract).
func RunConfigContext(ctx context.Context, cfg Config) (*Result, error) {
	return runner.Run(ctx, cfg)
}

// BatchOption configures RunBatch; see WithWorkers, WithProgress and
// WithFailFast.
type BatchOption = runner.Option

// BatchProgress is a live snapshot of a batch in flight.
type BatchProgress = runner.Progress

// BatchResult is the outcome of one run of a batch; results are
// returned in scenario order regardless of completion order.
type BatchResult = runner.RunResult

// WithWorkers bounds the batch worker pool to n concurrent runs
// (default runtime.GOMAXPROCS(0)).
func WithWorkers(n int) BatchOption { return runner.WithWorkers(n) }

// WithProgress installs a live progress callback (runs started/done,
// events simulated, wall-clock rates). The callback is invoked
// serially and should return quickly.
func WithProgress(fn func(BatchProgress)) BatchOption { return runner.WithProgress(fn) }

// WithFailFast makes the first run error cancel the rest of the batch.
func WithFailFast(on bool) BatchOption { return runner.WithFailFast(on) }

// RunBatch emulates many scenarios concurrently on a bounded worker
// pool. Each run builds its own emulator state from its scenario, and
// every scenario keeps its own Seed, so the results — returned in
// scenario order — are bit-identical to running the scenarios
// sequentially, for any worker count. Scenarios must not be mutated
// while the batch runs. The returned error is non-nil only when the
// whole batch stopped early (context canceled, or a run failed under
// WithFailFast); otherwise per-run failures are reported in the
// results.
func RunBatch(ctx context.Context, scenarios []*Scenario, opts ...BatchOption) ([]BatchResult, error) {
	specs := make([]runner.Spec, len(scenarios))
	for i, s := range scenarios {
		s := s
		label := s.Name
		if label == "" {
			label = fmt.Sprintf("scenario %d", i)
		}
		specs[i] = runner.Spec{Label: label, Make: s.Config}
	}
	return runner.Batch(ctx, specs, opts...)
}

// DeriveSeed deterministically derives the i-th run's seed from a base
// seed, decorrelating replicated scenarios without shared RNG state:
// the same (base, i) yields the same seed on any machine with any
// worker count. Use it to stamp Seed when fanning one scenario out
// into a batch.
func DeriveSeed(base int64, i int) int64 { return runner.DeriveSeed(base, i) }

// RunWithTimeline emulates the scenario recording the processor-usage
// timeline (renderable as ASCII or SVG) and writing the message log of
// scheduling decisions to log (nil discards it).
//
//bce:ctxshim convenience wrapper for the examples; roots a background context and delegates to RunConfigContext
func RunWithTimeline(s *Scenario, log io.Writer) (*Result, error) {
	cfg, err := s.Config()
	if err != nil {
		return nil, err
	}
	cfg.RecordTimeline = true
	cfg.Log = log
	return RunConfigContext(context.Background(), cfg)
}

// LoadScenario reads a scenario from JSON.
func LoadScenario(r io.Reader) (*Scenario, error) { return scenario.Load(r) }

// LoadScenarioFile reads a scenario from a JSON file.
func LoadScenarioFile(path string) (*Scenario, error) { return scenario.LoadFile(path) }

// ImportClientState reconstructs a scenario from a BOINC
// client_state.xml file (subset), the paper's web-interface workflow.
func ImportClientState(r io.Reader) (*Scenario, error) {
	return scenario.ImportClientState(r)
}

// MetricNames returns the five figure-of-merit names in report order.
func MetricNames() [5]string { return metrics.Names() }
