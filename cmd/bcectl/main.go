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
package main

import (
	"context"
	"flag"
	"fmt"
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
	var (
		seeds      = flag.Int("seeds", 3, "replications per configuration")
		workers    = flag.Int("workers", runtime.NumCPU(), "concurrent emulation runs")
		progress   = flag.Bool("progress", false, "print live batch progress to stderr")
		csv        = flag.String("csv", "", "also write figure/sweep data as CSV to this file")
		chart      = flag.Bool("chart", true, "print ASCII charts for sweeps")
		html       = flag.String("html", "", "also write an HTML report with SVG charts to this file")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole batch to this file")
	)
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)

	// os.Exit skips deferred calls and a truncated profile is useless,
	// so every exit path below stops the profile explicitly.
	stopProfile := func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bcectl:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bcectl:", err)
			os.Exit(1)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	sl := harness.Seeds(*seeds)
	var rep *report.Report
	if *html != "" {
		rep = report.New("BCE " + cmd + " report")
	}

	// Ctrl-C cancels the batch between simulator events; a second
	// signal kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	batchOpts := runner.Options{Workers: *workers}
	if *progress {
		batchOpts.Progress = printProgress
	}
	opts := []runner.Option{runner.WithOptions(batchOpts)}

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
			if err = runFigure(ctx, e, sl, "", *chart, rep, opts); err != nil {
				break
			}
			fmt.Println()
		}
	case "compare":
		err = runCompare(ctx, flag.Arg(1), sl, rep, opts)
	case "sweep":
		err = runSweep(ctx, flag.Args()[1:], sl, *csv, *chart, rep, opts)
	case "study":
		err = runStudy(ctx, flag.Args()[1:], *progress, rep, opts)
	case "study-coord":
		err = runStudyCoord(ctx, flag.Args()[1:], *progress, rep)
	case "study-worker":
		err = runStudyWorker(ctx, flag.Args()[1:], *progress, opts)
	case "bench":
		err = runBench(flag.Args()[1:])
	case "loadgen":
		err = runLoadgen(ctx, flag.Args()[1:])
	default:
		e, lerr := experiments.ByID(cmd)
		if lerr != nil {
			usage()
			stopProfile()
			os.Exit(2)
		}
		err = runFigure(ctx, e, sl, *csv, *chart, rep, opts)
	}
	if err == nil && rep != nil {
		err = writeReport(rep, *html)
	}
	stopProfile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bcectl:", err)
		os.Exit(1)
	}
}

// printProgress rewrites one stderr status line per engine update.
func printProgress(p runner.Progress) {
	fmt.Fprintf(os.Stderr, "\r%d/%d runs (%d in flight, %d failed)  %.2e events  %.3g ev/s   ",
		p.Done, p.Total, p.Started-p.Done, p.Failed, float64(p.Events), p.EventsPerSec())
	if p.Done == p.Total {
		fmt.Fprintln(os.Stderr)
	}
}

func writeReport(rep *report.Report, path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := rep.Render(out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "HTML report written to %s\n", path)
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `bcectl — BOINC client emulator controller

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
  bcectl loadgen [loadgen flags]   drive a running bceweb with submit→poll
                                   cycles; report p50/p99 latency and
                                   throughput (loadgen -h for flags)

flags:
`)
	flag.PrintDefaults()
}

func runFigure(ctx context.Context, e experiments.Entry, seeds []int64, csvPath string, chart bool, rep *report.Report, opts []runner.Option) error {
	fig, err := e.Gen(ctx, seeds, opts...)
	if err != nil {
		return err
	}
	printFigure(fig, chart)
	if rep != nil {
		rep.AddFigure(fig)
	}
	if csvPath != "" {
		return writeFigureCSV(fig, csvPath)
	}
	return nil
}

func printFigure(f *experiments.Figure, chart bool) {
	fmt.Printf("== %s: %s\n", f.ID, f.Title)
	fmt.Println(f.Header())
	for i := range f.X {
		fmt.Println(f.Row(i))
	}
	if f.Notes != "" {
		fmt.Println("note:", f.Notes)
	}
	if chart && len(f.X) > 2 {
		fmt.Println()
		fmt.Print(figureChart(f, 60, 12))
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
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	fmt.Fprintf(out, "%s", f.XLabel)
	for _, l := range f.Labels {
		fmt.Fprintf(out, ",%s", l)
	}
	fmt.Fprintln(out)
	for i, x := range f.X {
		fmt.Fprintf(out, "%g", x)
		for _, l := range f.Labels {
			fmt.Fprintf(out, ",%g", f.Y[l][i])
		}
		fmt.Fprintln(out)
	}
	return nil
}

// runCompare runs every job-sched × job-fetch combination on a
// user-supplied scenario.
func runCompare(ctx context.Context, path string, seeds []int64, rep *report.Report, opts []runner.Option) error {
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
	cmp, err := harness.Compare(ctx, variants, seeds, opts...)
	if err != nil {
		return err
	}
	fmt.Printf("scenario %s, %d seed(s)\n\n", base.Name, len(seeds))
	fmt.Print(cmp.Table())
	if rep != nil {
		rep.AddComparison("Policy comparison on "+base.Name, cmp)
	}
	return nil
}

// runSweep sweeps one scenario parameter across the given values.
func runSweep(ctx context.Context, args []string, seeds []int64, csvPath string, chart bool, rep *report.Report, opts []runner.Option) error {
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
	sw, err := harness.Sweep(ctx, param, xs, mk, seeds, opts...)
	if err != nil {
		return err
	}
	for _, metric := range []string{"idle", "wasted", "share_violation", "monotony", "rpcs_per_job"} {
		fmt.Print(sw.Table(metric))
		fmt.Println()
	}
	if chart {
		xs, ys := sw.Series(base.Name, "wasted")
		fmt.Print(figureChart(&experiments.Figure{
			XLabel: param, YLabel: "wasted",
			Labels: []string{base.Name}, X: xs, Y: map[string][]float64{base.Name: ys},
		}, 60, 12))
	}
	if rep != nil {
		for _, metric := range []string{"idle", "wasted", "share_violation", "monotony", "rpcs_per_job"} {
			rep.AddSweep(metric+" vs "+param, sw, metric)
		}
	}
	if csvPath != "" {
		out, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer out.Close()
		return sw.CSV(out)
	}
	return nil
}
