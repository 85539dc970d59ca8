// Command scengen writes or summarises the scenarios of a Monte-Carlo
// population study — the paper's §6.2 future-work direction
// ("characterize the actual population of scenarios"). Scenario i of
// seed s is population.Scenario(s, i, pop), the same host `bcectl
// study -seed s` folds as its scenario i, so a study member written
// here replays alone with `bce DIR/pop-NNNNNNN.json`.
//
// Usage:
//
//	scengen -n 10                  summarise the default study's first 10 scenarios
//	scengen -n 10 -out dir/        write them as dir/pop-0000000.json …
package main

import (
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
		n       = flag.Int("n", 10, "number of scenarios: indices 0..n-1 of the population")
		seed    = flag.Int64("seed", 1, "population base seed (bcectl study -seed)")
		outDir  = flag.String("out", "", "directory to write DIR/pop-NNNNNNN.json scenario files into")
		days    = flag.Float64("days", 1, "emulated duration of each scenario, days (bcectl study -days)")
		maxProj = flag.Int("max-projects", 20, "cap on attached projects per host")
	)
	flag.Parse()

	pop := scenario.PopulationParams{MaxProjects: *maxProj, DurationDays: *days}
	if *outDir == "" {
		summarise(*seed, *n, pop)
		return
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	for i := 0; i < *n; i++ {
		s := population.Scenario(*seed, i, pop)
		path := filepath.Join(*outDir, s.Name+".json")
		if err := writeScenario(path, s); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", path)
	}
}

func writeScenario(path string, s *scenario.Scenario) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func summarise(seed int64, n int, pop scenario.PopulationParams) {
	gpus, sporadic := 0, 0
	var projects stats.Mean
	for i := 0; i < n; i++ {
		s := population.Scenario(seed, i, pop)
		if s.Host.NGPU > 0 {
			gpus++
		}
		if s.Host.Avail.MeanOffHours > 0 {
			sporadic++
		}
		projects.Add(float64(len(s.Projects)))
	}
	fmt.Printf("sampled %d scenarios of seed %d: %d with GPUs, %d with sporadic availability, %.1f projects/host mean\n",
		n, seed, gpus, sporadic, projects.Mean())
	fmt.Println("use -out DIR to write them; bcectl study compares policies over them")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scengen:", err)
	os.Exit(1)
}
