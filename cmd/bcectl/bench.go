// The bench subcommand drives internal/perf — the emulator's
// performance ledger. `bench run` executes a declared benchmark suite
// and records a BENCH_<stamp>.json trajectory file; `bench compare`
// diffs two recorded ledgers; `bench gate` runs the suite fresh and
// fails (exit 1) if any benchmark regressed past the noise thresholds
// versus the baseline ledger. CI and humans drive the ledger through
// these verbs instead of ad-hoc `go test -bench` invocations.
package main

import (
	"flag"
	"fmt"
	"os"

	"bce/internal/perf"
)

func runBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		suite     = fs.String("suite", "hot", `benchmarks to run: "hot", "figures", "serve", "all", or comma-separated names`)
		out       = fs.String("out", "", "directory to write the fresh BENCH_<stamp>.json ledger into (empty: don't save)")
		baseline  = fs.String("baseline", "", "baseline for compare/gate: a ledger file, or a directory holding BENCH_*.json (default \".\", newest wins)")
		benchtime = fs.String("benchtime", "", `per-benchmark budget like go test -benchtime ("2s", "100x"; empty: testing's 1s default)`)
		threshold = fs.Float64("threshold", perf.DefaultThresholds.Time, "wall-time regression threshold as a fraction; negative disables time gating")
		allocTh   = fs.Float64("alloc-threshold", perf.DefaultThresholds.Allocs, "allocs/op regression threshold as a fraction; negative disables alloc gating")
		list      = fs.Bool("list", false, "list the declared benchmarks and exit")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, `usage: bcectl bench [bench flags] run|compare|gate [ledger files]

  bench run                    run the suite; save a ledger if -out is set
  bench compare old new        diff two recorded ledger files
  bench compare                diff the two newest ledgers in the -baseline dir
  bench gate                   run the suite fresh and fail on regression
                               vs the -baseline ledger (file or dir)

bench flags:`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, bn := range perf.AllSuite() {
			fmt.Printf("%-16s %s\n", bn.Name, bn.Doc)
		}
		return nil
	}
	th := perf.Thresholds{Time: *threshold, Allocs: *allocTh}
	verb := fs.Arg(0)
	switch verb {
	case "", "run":
		return benchRun(*suite, *benchtime, *out)
	case "compare":
		return benchCompare(fs.Args()[1:], *baseline, th)
	case "gate":
		return benchGate(*suite, *benchtime, *out, *baseline, th)
	default:
		fs.Usage()
		return fmt.Errorf("unknown bench verb %q", verb)
	}
}

// benchRunSuite runs the selected suite into a fresh ledger, saving it
// when outDir is non-empty.
func benchRunSuite(suiteSpec, benchtime, outDir string) (*perf.Ledger, error) {
	benches, err := perf.Select(suiteSpec)
	if err != nil {
		return nil, err
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	entries, err := perf.RunSuite(benches, benchtime, logf)
	if err != nil {
		return nil, err
	}
	l := perf.NewLedger(suiteSpec, benchtime)
	l.Entries = entries
	if outDir != "" {
		path, err := perf.Save(outDir, l)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "ledger written to %s\n", path)
	}
	return l, nil
}

func benchRun(suiteSpec, benchtime, outDir string) error {
	l, err := benchRunSuite(suiteSpec, benchtime, outDir)
	if err != nil {
		return err
	}
	fmt.Printf("suite %s at %s (commit %s, %s %s/%s)\n", l.Suite, l.Stamp, orDash(l.Commit), l.Host.GoVersion, l.Host.OS, l.Host.Arch)
	for _, e := range l.Entries {
		fmt.Printf("%-16s %12.0f ns/op %8d allocs/op %10d B/op\n", e.Name, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp)
	}
	return nil
}

// loadBaseline resolves -baseline: a ledger file loads directly, a
// directory (or "") yields its newest BENCH_*.json.
func loadBaseline(spec string) (*perf.Ledger, string, error) {
	if spec == "" {
		spec = "."
	}
	st, err := os.Stat(spec)
	if err != nil {
		return nil, "", fmt.Errorf("baseline %s: %w", spec, err)
	}
	if st.IsDir() {
		return perf.Latest(spec)
	}
	l, err := perf.Load(spec)
	if err != nil {
		return nil, "", err
	}
	return l, spec, nil
}

func benchCompare(files []string, baseline string, th perf.Thresholds) error {
	var base, cur *perf.Ledger
	switch len(files) {
	case 2:
		var err error
		if base, err = perf.Load(files[0]); err != nil {
			return err
		}
		if cur, err = perf.Load(files[1]); err != nil {
			return err
		}
	case 0:
		dir := baseline
		if dir == "" {
			dir = "."
		}
		paths, err := perf.List(dir)
		if err != nil {
			return err
		}
		if len(paths) < 2 {
			return fmt.Errorf("compare needs two ledgers; %s has %d (pass two files explicitly)", dir, len(paths))
		}
		if base, err = perf.Load(paths[len(paths)-2]); err != nil {
			return err
		}
		if cur, err = perf.Load(paths[len(paths)-1]); err != nil {
			return err
		}
	default:
		return fmt.Errorf("compare takes zero or two ledger files, got %d", len(files))
	}
	rep := perf.Compare(base, cur, th)
	fmt.Print(rep.Table())
	return nil
}

func benchGate(suiteSpec, benchtime, outDir, baseline string, th perf.Thresholds) error {
	base, basePath, err := loadBaseline(baseline)
	if err != nil {
		return err
	}
	cur, err := benchRunSuite(suiteSpec, benchtime, outDir)
	if err != nil {
		return err
	}
	rep := perf.Compare(base, cur, th)
	fmt.Printf("gate vs %s\n", basePath)
	fmt.Print(rep.Table())
	return rep.Gate()
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
