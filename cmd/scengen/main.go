// Command scengen samples random scenarios from a population model of
// volunteer hosts and optionally runs a Monte-Carlo policy study over
// them — the paper's §6.2 future-work direction ("develop a system,
// perhaps based on Monte-Carlo sampling, to study policies over the
// entire population").
//
// Usage:
//
//	scengen -n 10 -out dir/            write 10 scenario JSON files
//	scengen -study -n 50               compare policies over 50 samples
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"bce/internal/population"
	"bce/internal/scenario"
	"bce/internal/stats"
)

func main() {
	var (
		n       = flag.Int("n", 10, "number of scenarios to sample")
		seed    = flag.Int64("seed", 3, "sampler seed")
		outDir  = flag.String("out", "", "directory to write scenario JSON files")
		doStudy = flag.Bool("study", false, "run a Monte-Carlo policy study over the samples")
		days    = flag.Float64("days", 2, "emulation length per sample in the study")
		maxProj = flag.Int("max-projects", 20, "cap on attached projects per host")
	)
	flag.Parse()

	rng := stats.NewRNG(*seed)
	params := scenario.PopulationParams{MaxProjects: *maxProj, DurationDays: *days}
	samples := make([]*scenario.Scenario, *n)
	for i := range samples {
		samples[i] = scenario.Sample(rng, params)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
		for i, s := range samples {
			path := filepath.Join(*outDir, fmt.Sprintf("scenario_%03d.json", i))
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if err := s.Save(f); err != nil {
				fatal(err)
			}
			f.Close()
			fmt.Println("wrote", path)
		}
	}

	if *doStudy {
		if err := runStudy(samples); err != nil {
			fatal(err)
		}
	} else if *outDir == "" {
		// No output requested: print a summary of the population.
		summarise(samples)
	}
}

// runStudy runs each default policy combination on every sample and
// reports population means plus paired per-scenario wins, folded by
// the population study engine over the samples.
func runStudy(samples []*scenario.Scenario) error {
	st, err := population.Run(context.Background(), population.Params{
		Scenarios: len(samples),
		Source:    func(i int) (*scenario.Scenario, error) { return samples[i], nil },
	})
	if err != nil {
		return err
	}
	fmt.Printf("Monte-Carlo study over %d sampled scenarios\n\n", len(samples))
	fmt.Print(st.Table())
	fmt.Println()
	// Paired wins for the two headline metrics: share violation and
	// RPCs per job.
	fmt.Print(st.WinsTable(2))
	fmt.Println()
	fmt.Print(st.WinsTable(4))
	return nil
}

func summarise(samples []*scenario.Scenario) {
	gpus, sporadic := 0, 0
	var projects stats.Mean
	for _, s := range samples {
		if s.Host.NGPU > 0 {
			gpus++
		}
		if s.Host.Avail.MeanOffHours > 0 {
			sporadic++
		}
		projects.Add(float64(len(s.Projects)))
	}
	fmt.Printf("sampled %d scenarios: %d with GPUs, %d with sporadic availability, %.1f projects/host mean\n",
		len(samples), gpus, sporadic, projects.Mean())
	fmt.Println("use -out DIR to write them, -study to run the Monte-Carlo policy study")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scengen:", err)
	os.Exit(1)
}
