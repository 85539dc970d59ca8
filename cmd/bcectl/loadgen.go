// The loadgen subcommand drives a running bceweb instance through the
// async submission API (internal/serve.Loadgen) and reports tail
// latency and throughput — closed-loop by default, open-loop with
// -rate. It is how the BENCH ledger's serve numbers are reproduced by
// hand against a real deployment.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"bce/internal/scenario"
	"bce/internal/serve"
)

func (c *cli) loadgen(ctx context.Context, args []string) error {
	fs := c.flagSet("loadgen", `usage: bcectl loadgen [flags]

Drives a running bceweb with submit→done cycles, each waiting on the
job's event stream, and reports p50/p90/p99 latency and throughput.
Start a target first, e.g.:

  bceweb -addr localhost:8080 &
  bcectl loadgen -url http://localhost:8080 -n 100 -c 8

flags:`)
	var (
		url       = fs.String("url", "http://localhost:8080", "target bceweb base URL")
		n         = fs.Int("n", 50, "total submissions to complete")
		conc      = fs.Int("c", 4, "closed-loop concurrency (virtual clients)")
		rate      = fs.Float64("rate", 0, "open-loop arrival rate in req/s (0 = closed loop)")
		days      = fs.Float64("days", 0.05, "emulated days per built-in scenario")
		scnPath   = fs.String("scenario", "", "scenario JSON file to submit (default: tiny built-in)")
		identical = fs.Bool("identical", false, "submit byte-identical requests (hammers the result cache)")
		timeout   = fs.Duration("timeout", 2*time.Minute, "per-request cap, submit through completion")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	o := serve.LoadgenOptions{
		URL:         *url,
		Requests:    *n,
		Concurrency: *conc,
		RatePerSec:  *rate,
		Identical:   *identical,
		Timeout:     *timeout,
	}
	if *scnPath != "" {
		f, err := os.Open(*scnPath)
		if err != nil {
			return err
		}
		scn, err := scenario.Load(f)
		f.Close() //bce:errok read-only handle
		if err != nil {
			return err
		}
		o.Scenario = scn
	} else {
		o.Scenario = serve.DefaultLoadgenScenario(*days)
	}
	mode := fmt.Sprintf("closed loop, %d clients", o.Concurrency)
	if o.RatePerSec > 0 {
		mode = fmt.Sprintf("open loop, %.1f req/s", o.RatePerSec)
	}
	fmt.Fprintf(c.stdout, "loadgen: %d requests against %s (%s)\n", o.Requests, o.URL, mode)
	res, err := serve.Loadgen(ctx, o)
	if err != nil {
		return err
	}
	fmt.Fprint(c.stdout, res.Table())
	if res.Failed > 0 {
		return fmt.Errorf("loadgen: %d request(s) failed", res.Failed)
	}
	return nil
}
