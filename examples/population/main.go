// population demonstrates the Monte-Carlo population study (paper
// §6.2): sample random volunteer hosts from a population model and
// compare policy combinations across the whole sample rather than on a
// single scenario. population.Run folds every (scenario, policy) cell
// into population means with 95% confidence intervals and paired
// per-scenario wins; `bcectl study` is the same engine at scale, with
// checkpoints, and `bcectl study-coord` shards it across machines.
//
//	go run ./examples/population
package main

import (
	"context"
	"fmt"
	"log"

	"bce/internal/population"
	"bce/internal/scenario"
)

const nSamples = 12

func main() {
	// Scenarios 0..11 of seed 100: hardware, availability, attached
	// projects and job properties all vary; one emulated day each
	// keeps the demo quick.
	st, err := population.Run(context.Background(), population.Params{
		Combos: []population.Combo{
			{Sched: "JS-LOCAL", Fetch: "JF-ORIG"},
			{Sched: "JS-LOCAL", Fetch: "JF-HYSTERESIS"},
			{Sched: "JS-GLOBAL", Fetch: "JF-HYSTERESIS"},
		},
		Scenarios:  nSamples,
		Seed:       100,
		Population: scenario.PopulationParams{DurationDays: 1},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("comparing policies over %d sampled scenarios (1 day each)\n\n", nSamples)
	fmt.Print(st.Table())
	fmt.Println()
	// RPCs per job: the fetch policy's headline metric (paper §5.4).
	fmt.Print(st.WinsTable(4))
	fmt.Println("\n(scengen -seed 100 -n 12 -out DIR writes these scenarios; bce DIR/pop-NNNNNNN.json replays one)")
}
