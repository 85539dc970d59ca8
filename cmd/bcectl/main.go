// Command bcectl is the emulator's controller (paper §4.3): it does
// multiple BCE runs and summarises the figures of merit. Subcommands:
//
//	bcectl fig1|fig2|fig3|fig4|fig5|fig6   regenerate a paper figure
//	bcectl figures                         regenerate all figures
//	bcectl compare scenario.json           all policy combinations on one scenario
//	bcectl sweep   scenario.json           sweep a scenario parameter
//	bcectl study -n 1000                   streaming Monte-Carlo population study
//	bcectl study-coord / study-worker      the same study sharded across machines/processes
//	bcectl bench run|compare|gate          performance ledger (internal/perf)
//	bcectl loadgen -url http://host:8080   load-test a running bceweb
//
// Figure output is a table plus an ASCII chart; -csv writes the series
// as CSV to a file.
//
// main only turns SIGINT and SIGTERM into a context; run is the whole
// command and writes only to the streams it is given. So this
// package's tests are bcectl's acceptance tests: they drive its
// subcommands through run in-process, and TestProcessDrill builds the
// binaries for the checks that need real processes and signals
// (DESIGN.md §7).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"

	"bce"
	"bce/internal/experiments"
	"bce/internal/harness"
	"bce/internal/report"
	"bce/internal/runner"
	"bce/internal/scenario"
)

func main() {
	// Ctrl-C cancels the batch between simulator events; stop then
	// restores the default handling, so a second signal kills the
	// process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// cli is one bcectl invocation: its parsed global flags and the
// streams its subcommands write to.
type cli struct {
	seeds          []int64
	opts           []runner.Option
	progress       bool
	csv            string
	chart          bool
	rep            *report.Report // the -html report; nil without -html
	stdout, stderr io.Writer
}

// run is bcectl on args (without the program name) under ctx. It
// writes only to stdout and stderr and returns the exit code: 0 on
// success or -h, 1 when the command fails, 2 for a bad top-level flag
// or a missing or unknown command. stderr must take concurrent writes,
// as an *os.File does: study-coord logs from its HTTP handlers.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bcectl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seeds      = fs.Int("seeds", 3, "replications per configuration")
		workers    = fs.Int("workers", runtime.NumCPU(), "concurrent emulation runs")
		progress   = fs.Bool("progress", false, "print live batch progress to stderr")
		csv        = fs.String("csv", "", "also write figure/sweep data as CSV to this file")
		chart      = fs.Bool("chart", true, "print ASCII charts for sweeps")
		html       = fs.String("html", "", "also write an HTML report with SVG charts to this file")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the whole batch to this file")
	)
	fs.Usage = func() { usage(fs) }
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return 2
	}
	cmd, rest := fs.Arg(0), fs.Args()[1:]
	if *csv != "" && (cmd == "figures" || cmd == "extensions") {
		// One CSV cannot hold figures with different x axes.
		fmt.Fprintf(stderr, "bcectl: -csv takes one figure's series, and %s makes several; run each figure with its own -csv\n", cmd)
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err == nil {
			defer f.Close()
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bcectl:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	c := &cli{
		seeds:    harness.Seeds(*seeds),
		progress: *progress,
		csv:      *csv,
		chart:    *chart,
		stdout:   stdout,
		stderr:   stderr,
	}
	if *html != "" {
		c.rep = report.New("BCE " + cmd + " report")
	}
	batchOpts := runner.Options{Workers: *workers}
	// study and study-worker print a scenario meter of their own; the
	// runner's meter restarts at 0 every batch and would overwrite it.
	if *progress && cmd != "study" && cmd != "study-worker" {
		batchOpts.Progress = c.printProgress
	}
	c.opts = []runner.Option{runner.WithOptions(batchOpts)}

	var err error
	switch cmd {
	case "figures", "extensions":
		prefix := "fig"
		if cmd == "extensions" {
			prefix = "ext-"
		}
		for _, e := range experiments.All() {
			if !strings.HasPrefix(e.ID, prefix) {
				continue
			}
			if err = c.figure(ctx, e, ""); err != nil {
				break
			}
			fmt.Fprintln(stdout)
		}
	case "compare":
		err = c.compare(ctx, fs.Arg(1))
	case "sweep":
		err = c.sweep(ctx, rest)
	case "study":
		err = c.study(ctx, rest)
	case "study-coord":
		err = c.studyCoord(ctx, rest)
	case "study-worker":
		err = c.studyWorker(ctx, rest)
	case "bench":
		err = c.bench(rest)
	case "loadgen":
		err = c.loadgen(ctx, rest)
	default:
		e, lerr := experiments.ByID(cmd)
		if lerr != nil {
			fs.Usage()
			return 2
		}
		err = c.figure(ctx, e, c.csv)
	}
	if err == nil && c.rep != nil {
		err = c.writeReport(*html)
	}
	switch {
	case errors.Is(err, flag.ErrHelp): // a subcommand's -h
		return 0
	case err != nil:
		fmt.Fprintln(stderr, "bcectl:", err)
		return 1
	}
	return 0
}

// flagSet returns a subcommand's flag set, which reports to c.stderr
// and whose usage is line and then its flags.
func (c *cli) flagSet(name, line string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	fs.Usage = func() {
		fmt.Fprintln(c.stderr, line)
		fs.PrintDefaults()
	}
	return fs
}

// printProgress rewrites one stderr status line per engine update.
func (c *cli) printProgress(p runner.Progress) {
	fmt.Fprintf(c.stderr, "\r%d/%d runs (%d in flight, %d failed)  %.2e events  %.3g ev/s   ",
		p.Done, p.Total, p.Started-p.Done, p.Failed, float64(p.Events), p.EventsPerSec())
	if p.Done == p.Total {
		fmt.Fprintln(c.stderr)
	}
}

func (c *cli) writeReport(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := c.rep.Render(out); err != nil {
		return err
	}
	fmt.Fprintf(c.stderr, "HTML report written to %s\n", path)
	return nil
}

func usage(fs *flag.FlagSet) {
	fmt.Fprintf(fs.Output(), `bcectl — BOINC client emulator controller

  bcectl [flags] fig1..fig6        regenerate one paper figure
  bcectl [flags] figures           regenerate all paper figures
  bcectl [flags] extensions        run the extension experiments
                                   (ext-transfer, ext-fleet, ext-server)
  bcectl [flags] compare s.json    run every policy combination on a scenario
  bcectl [flags] sweep s.json param v1 v2 ...
                                   sweep a scenario parameter
                                   (param: min_queue_hours, max_queue_hours,
                                    rec_half_life, duration_days)
  bcectl [flags] study [study flags]
                                   streaming population study; rerun it
                                   on its -checkpoint to resume (study -h
                                   for flags)
  bcectl study-coord -dir DIR      coordinator for a study sharded across
                                   machines: leases scenario shards to
                                   workers, merges their aggregates
  bcectl [flags] study-worker -coord URL -dir DIR
                                   worker for a distributed study; kill
                                   and restart with the same -name/-dir
                                   to resume mid-shard
  bcectl bench [bench flags] run|compare|gate
                                   run the perf suite into a BENCH_*.json
                                   ledger, diff ledgers, or gate against
                                   the baseline (bench -h for flags)
  bcectl loadgen [loadgen flags]   drive a running bceweb with submit→done
                                   cycles; report p50/p99 latency and
                                   throughput (loadgen -h for flags)

flags:
`)
	fs.PrintDefaults()
}

// figure regenerates one registry entry; a non-empty csvPath also
// gets its series as CSV.
func (c *cli) figure(ctx context.Context, e experiments.Entry, csvPath string) error {
	fig, err := e.Gen(ctx, c.seeds, c.opts...)
	if err != nil {
		return err
	}
	c.printFigure(fig)
	if c.rep != nil {
		c.rep.AddFigure(fig)
	}
	if csvPath != "" {
		return writeFigureCSV(fig, csvPath)
	}
	return nil
}

func (c *cli) printFigure(f *experiments.Figure) {
	fmt.Fprintf(c.stdout, "== %s: %s\n", f.ID, f.Title)
	fmt.Fprintln(c.stdout, f.Header())
	for i := range f.X {
		fmt.Fprintln(c.stdout, f.Row(i))
	}
	if f.Notes != "" {
		fmt.Fprintln(c.stdout, "note:", f.Notes)
	}
	if c.chart && len(f.X) > 2 {
		fmt.Fprintln(c.stdout)
		fmt.Fprint(c.stdout, figureChart(f, 60, 12))
	}
}

// figureChart renders the figure's series as a crude ASCII chart.
func figureChart(f *experiments.Figure, width, height int) string {
	glyphs := []byte{'*', 'o', '+', 'x', '#'}
	minX, maxX := f.X[0], f.X[len(f.X)-1]
	var maxY float64
	for _, l := range f.Labels {
		for _, y := range f.Y[l] {
			if y > maxY {
				maxY = y
			}
		}
	}
	if maxY <= 0 {
		maxY = 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for li, l := range f.Labels {
		g := glyphs[li%len(glyphs)]
		for i, x := range f.X {
			col := 0
			if maxX > minX {
				col = int(float64(width-1) * (x - minX) / (maxX - minX))
			}
			row := height - 1 - int(float64(height-1)*f.Y[l][i]/maxY)
			if row >= 0 && row < height && col >= 0 && col < width {
				grid[row][col] = g
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s vs %s (ymax=%.3f)\n", f.YLabel, f.XLabel, maxY)
	for _, row := range grid {
		b.WriteByte('|')
		b.Write(row)
		b.WriteByte('\n')
	}
	b.WriteString("+" + strings.Repeat("-", width) + "\n ")
	for li, l := range f.Labels {
		fmt.Fprintf(&b, " %c=%s", glyphs[li%len(glyphs)], l)
	}
	b.WriteByte('\n')
	return b.String()
}

func writeFigureCSV(f *experiments.Figure, path string) error {
	return createFile(path, func(w io.Writer) error {
		fmt.Fprintf(w, "%s", f.XLabel)
		for _, l := range f.Labels {
			fmt.Fprintf(w, ",%s", l)
		}
		fmt.Fprintln(w)
		for i, x := range f.X {
			fmt.Fprintf(w, "%g", x)
			for _, l := range f.Labels {
				fmt.Fprintf(w, ",%g", f.Y[l][i])
			}
			fmt.Fprintln(w)
		}
		return nil
	})
}

// createFile creates the file at path and fills it through write,
// buffered. It returns the first error of the write, the flush or the
// close: a bufio.Writer keeps its first write error and Flush returns
// it, so write may ignore the errors of its own writes.
func createFile(path string, write func(w io.Writer) error) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(out)
	err = write(bw)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

// compare runs every job-sched × job-fetch combination on a
// user-supplied scenario.
func (c *cli) compare(ctx context.Context, path string) error {
	if path == "" {
		return fmt.Errorf("compare needs a scenario file")
	}
	base, err := bce.LoadScenarioFile(path)
	if err != nil {
		return err
	}
	var variants []harness.Variant
	for _, js := range []string{"JS-LOCAL", "JS-GLOBAL", "JS-WRR"} {
		for _, jf := range []string{"JF-ORIG", "JF-HYSTERESIS"} {
			js, jf := js, jf
			variants = append(variants, harness.Variant{
				Label: js + "/" + jf,
				Make: func(seed int64) bce.Config {
					s := *base
					s.Policies.JobSched = js
					s.Policies.JobFetch = jf
					s.Seed = seed
					cfg, err := s.Config()
					if err != nil {
						panic(err) // validated at load
					}
					return cfg
				},
			})
		}
	}
	cmp, err := harness.Compare(ctx, variants, c.seeds, c.opts...)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stdout, "scenario %s, %d seed(s)\n\n", base.Name, len(c.seeds))
	fmt.Fprint(c.stdout, cmp.Table())
	if c.rep != nil {
		c.rep.AddComparison("Policy comparison on "+base.Name, cmp)
	}
	return nil
}

// sweep sweeps one scenario parameter across the given values.
func (c *cli) sweep(ctx context.Context, args []string) error {
	if len(args) < 3 {
		return fmt.Errorf("sweep needs: scenario.json param v1 v2 ...")
	}
	base, err := bce.LoadScenarioFile(args[0])
	if err != nil {
		return err
	}
	param := args[1]
	var xs []float64
	for _, a := range args[2:] {
		v, err := strconv.ParseFloat(a, 64)
		if err != nil {
			return fmt.Errorf("bad sweep value %q: %w", a, err)
		}
		xs = append(xs, v)
	}
	set := func(s *scenario.Scenario, v float64) error {
		switch param {
		case "min_queue_hours":
			s.Host.MinQueueHours = v
		case "max_queue_hours":
			s.Host.MaxQueueHours = v
		case "rec_half_life":
			s.Policies.RECHalfLife = v
		case "duration_days":
			s.DurationDays = v
		default:
			return fmt.Errorf("unknown sweep parameter %q", param)
		}
		return nil
	}
	mk := func(x float64) []harness.Variant {
		return []harness.Variant{{
			Label: base.Name,
			Make: func(seed int64) bce.Config {
				s := *base
				if err := set(&s, x); err != nil {
					panic(err)
				}
				s.Seed = seed
				cfg, err := s.Config()
				if err != nil {
					panic(err)
				}
				return cfg
			},
		}}
	}
	// Validate the parameter name once up front.
	probe := *base
	if err := set(&probe, xs[0]); err != nil {
		return err
	}
	sw, err := harness.Sweep(ctx, param, xs, mk, c.seeds, c.opts...)
	if err != nil {
		return err
	}
	for _, metric := range []string{"idle", "wasted", "share_violation", "monotony", "rpcs_per_job"} {
		fmt.Fprint(c.stdout, sw.Table(metric))
		fmt.Fprintln(c.stdout)
	}
	if c.chart {
		xs, ys := sw.Series(base.Name, "wasted")
		fmt.Fprint(c.stdout, figureChart(&experiments.Figure{
			XLabel: param, YLabel: "wasted",
			Labels: []string{base.Name}, X: xs, Y: map[string][]float64{base.Name: ys},
		}, 60, 12))
	}
	if c.rep != nil {
		for _, metric := range []string{"idle", "wasted", "share_violation", "monotony", "rpcs_per_job"} {
			c.rep.AddSweep(metric+" vs "+param, sw, metric)
		}
	}
	if c.csv != "" {
		return createFile(c.csv, sw.CSV)
	}
	return nil
}
