// Package runner is the emulator's parallel execution engine. The
// paper's whole method is *many* emulator runs — policy variants ×
// seeds × parameter sweeps, and Monte-Carlo host populations — and
// every run is an independent single-threaded discrete-event
// simulation, so the engine is a bounded worker pool that executes a
// batch of runs concurrently while keeping the results bit-identical
// to the sequential path:
//
//   - each run builds its own client.Config inside the worker (configs
//     hold live *host.Host pointers, so sharing one between runs would
//     race),
//   - results are collected by batch index, so downstream aggregation
//     happens in submission order regardless of completion order,
//   - a panic inside one run is recovered and surfaced as that run's
//     error instead of taking down the whole batch,
//   - the context is honored before every simulator event, so
//     cancellation and timeouts stop a batch promptly, and
//   - live progress counters (runs started/done, events simulated,
//     wall-clock rate) are published to an optional callback.
//
// All fan-out layers — harness, study, fleet, experiments, and the
// public bce batch API — sit on top of Batch.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"bce/internal/client"
)

// Spec describes one run in a batch. Make is called inside the worker
// executing the run and must return a freshly built configuration:
// configs hold live *host.Host pointers, and two runs sharing one
// would race. Make must not capture mutable state shared with other
// specs.
type Spec struct {
	Label string
	Make  func() (client.Config, error)
}

// RunResult is the outcome of one run of a batch. Exactly one of
// Result and Err is non-nil unless the run was skipped by
// cancellation, in which case Err wraps ErrSkipped.
type RunResult struct {
	Index  int
	Label  string
	Result *client.Result
	Err    error
}

// ErrSkipped marks batch entries that were never started because the
// batch was canceled first.
var ErrSkipped = errors.New("run skipped")

// PanicError is a panic recovered from one emulation run, surfaced as
// that run's error so a single bad configuration cannot take down a
// whole batch.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("emulation panicked: %v\n%s", e.Value, e.Stack)
}

// Progress is a snapshot of a batch in flight, published to the
// WithProgress callback after every run state change.
type Progress struct {
	Total   int           // runs in the batch
	Started int           // runs handed to a worker
	Done    int           // runs finished (including failed)
	Failed  int           // runs finished with an error
	Events  uint64        // simulator events dispatched by finished runs
	Elapsed time.Duration // wall clock since the batch began
}

// RunsPerSec is the wall-clock completion rate so far.
func (p Progress) RunsPerSec() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.Done) / p.Elapsed.Seconds()
}

// EventsPerSec is the wall-clock event simulation rate so far.
func (p Progress) EventsPerSec() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.Events) / p.Elapsed.Seconds()
}

// Options is the engine's one shared option set: every fan-out layer
// (harness, study, fleet, population, the public bce batch API, the
// CLIs) configures Batch through these knobs and no others. The zero
// value selects all defaults. Apply it with WithOptions, or field by
// field with the With* helpers; Resolve folds a helper list back into
// a struct when a caller needs to inspect the effective settings.
type Options struct {
	// Workers bounds the worker pool to that many concurrent runs.
	// Zero (or negative) selects the default, runtime.GOMAXPROCS(0).
	Workers int

	// Progress, when non-nil, receives a snapshot after every run
	// state change. It is invoked serially (never concurrently with
	// itself), so it need not be thread-safe, but it runs on worker
	// goroutines and should return quickly.
	Progress func(Progress)

	// FailFast makes the first run error cancel the rest of the
	// batch; Batch then returns that first error. Otherwise errors
	// are recorded per run and the batch keeps going.
	FailFast bool
}

// Option configures a Batch call; build one with WithOptions or the
// field helpers.
type Option func(*Options)

// WithOptions applies every set field of o at once — the struct form
// of the field helpers, for callers assembling settings from config.
// Zero fields leave the corresponding defaults untouched.
func WithOptions(o Options) Option {
	return func(dst *Options) {
		if o.Workers > 0 {
			dst.Workers = o.Workers
		}
		if o.Progress != nil {
			dst.Progress = o.Progress
		}
		if o.FailFast {
			dst.FailFast = true
		}
	}
}

// Resolve folds opts over the defaults and returns the effective
// option set — what Batch itself runs with (before clamping workers
// to the batch size).
func Resolve(opts ...Option) Options {
	o := Options{Workers: runtime.GOMAXPROCS(0)}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithWorkers bounds the worker pool to n concurrent runs. The default
// is runtime.GOMAXPROCS(0); values below 1 are ignored.
func WithWorkers(n int) Option {
	return func(o *Options) {
		if n > 0 {
			o.Workers = n
		}
	}
}

// WithProgress installs a progress callback; see Options.Progress for
// the callback contract.
func WithProgress(fn func(Progress)) Option {
	return func(o *Options) { o.Progress = fn }
}

// WithFailFast makes the first run error cancel the rest of the batch;
// see Options.FailFast.
func WithFailFast(on bool) Option {
	return func(o *Options) { o.FailFast = on }
}

// DeriveSeed deterministically derives the i-th run's RNG seed from a
// base seed (a SplitMix64 step), decorrelating replicated runs without
// any shared generator state: the same (base, i) always yields the
// same seed, on any machine, with any worker count.
func DeriveSeed(base int64, i int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*(uint64(i)+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Run executes one configuration under ctx with panic recovery — the
// single-run form of Batch.
func Run(ctx context.Context, cfg client.Config) (res *client.Result, err error) {
	defer recoverPanic(&err)
	c, err := client.New(cfg)
	if err != nil {
		return nil, err
	}
	return c.RunContext(ctx)
}

// Batch executes the specs on a bounded worker pool and returns one
// RunResult per spec, indexed like specs (so aggregating the results
// in order is deterministic for any worker count). The returned error
// is non-nil only when the whole batch stopped early: the context was
// canceled, or a run failed under WithFailFast. Per-run failures are
// otherwise reported in the results only.
func Batch(ctx context.Context, specs []Spec, opts ...Option) ([]RunResult, error) {
	o := Resolve(opts...)
	if o.Workers > len(specs) {
		o.Workers = len(specs)
	}
	if o.Workers < 1 {
		o.Workers = 1
	}

	results := make([]RunResult, len(specs))
	for i := range results {
		results[i] = RunResult{Index: i, Label: specs[i].Label}
	}

	tracker := newProgressTracker(len(specs), o.Progress)

	bctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var failOnce sync.Once
	var failErr error

	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				sp := specs[i]
				tracker.started()

				res, err := runSpec(bctx, sp)

				// Disjoint indices per run, published by wg.Wait —
				// results needs no lock.
				results[i].Result, results[i].Err = res, err
				tracker.finished(res, err)

				if err != nil && o.FailFast {
					failOnce.Do(func() {
						failErr = fmt.Errorf("runner: %s: %w", labelOf(sp, i), err)
						cancel(failErr)
					})
				}
			}
		}()
	}

feed:
	for i := range specs {
		select {
		case indices <- i:
		case <-bctx.Done():
			break feed
		}
	}
	close(indices)
	wg.Wait()

	// Mark entries that never ran.
	skipped := 0
	for i := range results {
		if results[i].Result == nil && results[i].Err == nil {
			results[i].Err = fmt.Errorf("%w: %w", ErrSkipped, context.Cause(bctx))
			skipped++
		}
	}

	if err := ctx.Err(); err != nil {
		return results, fmt.Errorf("runner: batch stopped after %d/%d runs: %w",
			len(specs)-skipped, len(specs), context.Cause(ctx))
	}
	if failErr != nil {
		return results, failErr
	}
	return results, nil
}

// progressTracker owns the batch's shared progress counters: the
// worker pool reports transitions through it, and it serializes the
// user's Progress callback (Options.Progress promises calls are never
// concurrent).
type progressTracker struct {
	callback func(Progress)
	start    time.Time

	mu   sync.Mutex
	prog Progress //bce:guardedby mu
}

func newProgressTracker(total int, callback func(Progress)) *progressTracker {
	return &progressTracker{
		callback: callback,
		start:    time.Now(), //bce:wallclock progress reporting shows real elapsed time
		prog:     Progress{Total: total},
	}
}

func (t *progressTracker) started() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.prog.Started++
	t.emitLocked()
}

func (t *progressTracker) finished(res *client.Result, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.prog.Done++
	if err != nil {
		t.prog.Failed++
	}
	if res != nil {
		t.prog.Events += res.Events
	}
	t.emitLocked()
}

// emitLocked snapshots the counters for the callback; callers hold mu.
func (t *progressTracker) emitLocked() {
	if t.callback == nil {
		return
	}
	p := t.prog
	p.Elapsed = time.Since(t.start) //bce:wallclock see newProgressTracker
	t.callback(p)
}

// runSpec executes one spec: fresh config, fresh client, panic
// recovery. The context is rechecked first so canceled batches drain
// their queue without starting work.
func runSpec(ctx context.Context, sp Spec) (res *client.Result, err error) {
	defer recoverPanic(&err)
	if ctxErr := ctx.Err(); ctxErr != nil {
		return nil, fmt.Errorf("%w: %w", ErrSkipped, context.Cause(ctx))
	}
	cfg, err := sp.Make()
	if err != nil {
		return nil, err
	}
	c, err := client.New(cfg)
	if err != nil {
		return nil, err
	}
	return c.RunContext(ctx)
}

func recoverPanic(err *error) {
	if r := recover(); r != nil {
		*err = &PanicError{Value: r, Stack: debug.Stack()}
	}
}

func labelOf(sp Spec, i int) string {
	if sp.Label != "" {
		return sp.Label
	}
	return fmt.Sprintf("run %d", i)
}
