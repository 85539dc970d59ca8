// The study subcommand: a streaming Monte-Carlo population study
// (paper §6.2) that a rerun on its checkpoint resumes. It is the one
// way to run a study on one machine; study-coord and study-worker
// (fabric.go) shard one across machines.
// Unlike compare/sweep, which keep every run's metrics, study folds
// each (scenario, policy) cell into constant-size aggregates, so -n
// can be large.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"strings"

	"bce/internal/population"
	"bce/internal/scenario"
)

// popFlags is the population-defining flag set shared by study and
// study-coord: everything that changes *what* is computed (as opposed
// to where and how fast).
type popFlags struct {
	n          *int
	seed       *int64
	days       *float64
	batch      *int
	combosFlag *string
	maxProj    *int
	gpuFrac    *float64
	sporFrac   *float64
}

func addPopFlags(fs *flag.FlagSet) *popFlags {
	return &popFlags{
		n:          fs.Int("n", 100, "number of scenarios to sample"),
		seed:       fs.Int64("seed", 1, "base seed for the scenario population"),
		days:       fs.Float64("days", 1, "emulated duration of each scenario, days"),
		batch:      fs.Int("batch", 0, "scenarios per engine batch (0 = default)"),
		combosFlag: fs.String("combos", "", "comma-separated sched/fetch pairs (default: the paper's matrix)"),
		maxProj:    fs.Int("max-projects", 0, "cap on projects per scenario (0 = default)"),
		gpuFrac:    fs.Float64("gpu-frac", -1, "fraction of hosts with a GPU (-1 = default)"),
		sporFrac:   fs.Float64("sporadic-frac", -1, "fraction of hosts with sporadic availability (-1 = default)"),
	}
}

// params materializes the flag values (checkpoint wiring is the
// caller's business).
func (pf *popFlags) params() (population.Params, error) {
	p := population.Params{
		Scenarios: *pf.n,
		Seed:      *pf.seed,
		Population: scenario.PopulationParams{
			DurationDays: *pf.days,
			MaxProjects:  *pf.maxProj,
		},
		BatchSize: *pf.batch,
	}
	if *pf.gpuFrac >= 0 {
		p.Population.GPUFraction = scenario.Frac(*pf.gpuFrac)
	}
	if *pf.sporFrac >= 0 {
		p.Population.SporadicFrac = scenario.Frac(*pf.sporFrac)
	}
	if *pf.combosFlag != "" {
		combos, err := parseCombos(*pf.combosFlag)
		if err != nil {
			return population.Params{}, err
		}
		p.Combos = combos
	}
	return p, nil
}

func (c *cli) study(ctx context.Context, args []string) error {
	fs := c.flagSet("study", "usage: bcectl [flags] study [study flags]")
	pf := addPopFlags(fs)
	checkpoint := fs.String("checkpoint", "", "write an aggregate checkpoint to this file after every batch; a rerun on it resumes the study")
	if err := fs.Parse(args); err != nil {
		return err
	}

	p, err := pf.params()
	if err != nil {
		return err
	}
	p.CheckpointPath = *checkpoint
	if c.progress {
		p.Progress = func(done, total int) {
			fmt.Fprintf(c.stderr, "\rstudy: %d/%d scenarios   ", done, total)
			if done == total {
				fmt.Fprintln(c.stderr)
			}
		}
	}

	st, err := population.Run(ctx, p, c.opts...)
	if err != nil {
		// Hint at a rerun only after an interruption: a failure such
		// as an unwritable checkpoint would recur on it.
		if interrupted(err) && st != nil && st.Done > 0 && *checkpoint != "" {
			fmt.Fprintf(c.stderr, "study interrupted at %d/%d scenarios; rerun the same command to resume\n",
				st.Done, st.Target)
		}
		return err
	}
	c.printStudy(st)
	return nil
}

// interrupted reports whether err is the context's: a signal or a
// deadline stopped the command, not a fault.
func interrupted(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// printStudy renders the finished study's tables (shared by study and
// study-coord).
func (c *cli) printStudy(st *population.Study) {
	fmt.Fprintf(c.stdout, "population study: %d scenarios, seed %d\n\n", st.Done, st.Seed)
	fmt.Fprint(c.stdout, st.Table())
	fmt.Fprintln(c.stdout)
	fmt.Fprint(c.stdout, st.QuantileTable(2)) // share_violation
	fmt.Fprintln(c.stdout)
	fmt.Fprint(c.stdout, st.WinsTable(2))
	fmt.Fprintln(c.stdout)
	fmt.Fprint(c.stdout, st.WinsTable(4)) // rpcs_per_job
	if c.rep != nil {
		c.rep.AddPopulation(fmt.Sprintf("Population study (%d scenarios)", st.Done), st)
	}
}

// parseCombos parses "JS-LOCAL/JF-ORIG,JS-WRR/JF-HYSTERESIS".
func parseCombos(s string) ([]population.Combo, error) {
	var combos []population.Combo
	for _, part := range strings.Split(s, ",") {
		sched, fetch, ok := strings.Cut(strings.TrimSpace(part), "/")
		if !ok || sched == "" || fetch == "" {
			return nil, fmt.Errorf("bad combo %q: want SCHED/FETCH", part)
		}
		combos = append(combos, population.Combo{Sched: sched, Fetch: fetch})
	}
	return combos, nil
}
