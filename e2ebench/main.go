// Command e2ebench is the repository's end-to-end benchmark: three
// workloads (fleet_days, study, serve_mix) generated from one seed,
// measured from outside the program, checked for correct output, and
// reported as named metrics with units. See README.md.
//
// Usage:
//
//	e2ebench --workload fleet_days --seed 1 --seconds 20 --trace 0
//	e2ebench --manifest ../BENCHMARK.json
//
// With --trace 0 the last line of standard output is a JSON object
// holding the end-to-end metrics; with --trace 1 it holds the per-layer
// metrics of a separate traced pass that replays the untraced pass.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// env is what one workload run is given.
type env struct {
	seed    int64
	budget  time.Duration // how long the untraced pass measures
	trace   bool
	small   bool   // tiny input sizes, for the smoke test
	workDir string // scratch space, removed when the run ends
}

// outcome is what one workload run reports. Every failed operation or
// output check counts in failed; the run is correct when none did.
type outcome struct {
	attempted, failed int
	digest            string
	metrics           map[string]float64
	notes             []string // human-readable lines printed before the result
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 5 {
		fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type workload struct {
	name, why string
	run       func(ctx context.Context, e *env) (*outcome, error)
}

var workloads = []workload{
	{"fleet_days", "one emulated day per population host, back to back on one goroutine: the emulation kernel does nearly all the work", runFleet},
	{"study", "tiny scenarios across the default policy combos, single-process and through the fabric: setup, fold, checkpoint and lease costs show", runStudy},
	{"serve_mix", "two closed-loop HTTP clients mixing async SSE and sync form runs with repeats: service, cache and rendering costs show", runServeMix},
}

// result is the last line of standard output, in JSON.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: fleet_days, study or serve_mix")
		seed     = flag.Int64("seed", 1, "seed every input derives from")
		seconds  = flag.Float64("seconds", runSeconds, "how long the untraced pass measures")
		traceOn  = flag.Int("trace", 0, "1 runs a traced replay and reports per-layer metrics")
		dir      = flag.String("dir", ".bench_build", "directory for scratch files and span dumps")
		expect   = flag.String("expect-digest", "", "fail the run unless the output digest equals this")
		manifest = flag.String("manifest", "", "write BENCHMARK.json to this path and exit")
	)
	flag.Parse()
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *manifest != "" {
		if err := writeManifest(*manifest); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, *name, *seed, time.Duration(*seconds*float64(time.Second)), *traceOn == 1, false, *dir, *expect, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		stop()
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		stop()
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and assembles its result. Human
// lines (seed, digest, every metric with its unit) go to out first.
func run(ctx context.Context, name string, seed int64, budget time.Duration, trace, small bool, dir, expect string, out io.Writer) (*result, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (want fleet_days, study or serve_mix)", name)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(dir, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	e := &env{seed: seed, budget: budget, trace: trace, small: small, workDir: work}
	o, err := w.run(ctx, e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if expect != "" && o.digest != expect {
		o.fail("digest %s, expected %s", o.digest, expect)
	}

	want := endToEnd
	if trace {
		want = perLayer
	}
	res := &result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(out, "workload %s seed %d trace %v\n", name, seed, trace)
	fmt.Fprintf(out, "digest %s\n", o.digest)
	for _, n := range o.notes {
		fmt.Fprintln(out, n)
	}
	for _, s := range want {
		v, ok := o.metrics[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s missing or not finite (%v)", name, s.name, v)
		}
		res.Metrics[s.name] = metricValue{v, s.unit}
		fmt.Fprintf(out, "%-28s %14.6g %s\n", s.name, v, s.unit)
	}
	return res, nil
}

// maxRSSMiB is the process's peak resident set size so far. Workloads
// read it right after their untraced pass, before checking outputs, so
// max_rss_mb covers set-up and the measured load but not the checks.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setupTimes runs setup n times, tearing down all but the last, and
// returns the median duration with the last set-up state.
func setupTimes[T any](n int, setup func() (T, error), teardown func(T)) (float64, T, error) {
	var times []float64
	var st T
	for i := 0; i < n; i++ {
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return 0, st, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 {
			teardown(s)
		}
		st = s
	}
	return median(times), st, nil
}

// setupRepeats is how many times each workload sets up per run; the
// median is setup_s.
const setupRepeats = 5

// median is the middle sample, or the mean of the middle two (0 for no
// samples).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank quantile (0 for no samples).
func quantile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never enters).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// digest folds ordered records into one hex string.
type digest struct{ h [32]byte }

func (d *digest) add(format string, args ...any) {
	d.h = sha256.Sum256(append(d.h[:], fmt.Sprintf(format, args...)...))
}

func (d *digest) String() string { return hex.EncodeToString(d.h[:8]) }

// tracedPass runs pass under a span tracer, a CPU profile and MemStats
// deltas, writes the spans and the profile to <dir>/traces for offline
// inspection (go tool pprof), and returns what the probe measured.
func tracedPass(e *env, name string, pass func(tr *tracer) error) (*tracer, probeResult, error) {
	tr := newTracer()
	p, err := startProbe()
	if err != nil {
		return nil, probeResult{}, err
	}
	err = pass(tr)
	pr, perr := p.stop()
	if err != nil {
		return nil, probeResult{}, err
	}
	if perr != nil {
		return nil, probeResult{}, perr
	}
	stem := filepath.Join(filepath.Dir(e.workDir), "traces", fmt.Sprintf("%s-seed%d", name, e.seed))
	if err := tr.write(stem+".json", name, e.seed); err != nil {
		return nil, probeResult{}, fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(stem+".pprof", pr.profile, 0o644); err != nil {
		return nil, probeResult{}, fmt.Errorf("write profile: %w", err)
	}
	return tr, pr, nil
}

// traceOverhead compares the traced replay with the untraced replay
// that follows it, so both run on a warm heap; the first, budgeted pass
// pays for growing it.
func traceOverhead(o *outcome, first, traced, again time.Duration) float64 {
	o.note("pass walls: untraced %.3fs, traced replay %.3fs, untraced replay %.3fs",
		first.Seconds(), traced.Seconds(), again.Seconds())
	return traced.Seconds()/again.Seconds() - 1
}

// zeroMetrics returns every per-layer metric at 0, for a workload to
// overwrite with the layers it enters.
func zeroMetrics() map[string]float64 {
	m := map[string]float64{}
	for _, s := range perLayer {
		m[s.name] = 0
	}
	return m
}

// formatVals renders five figures of merit the way the HTML page does.
func formatVals(v [5]float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}
