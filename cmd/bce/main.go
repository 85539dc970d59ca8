// Command bce runs the BOINC client emulator on one scenario and prints
// the figures of merit. It mirrors the paper's BCE binary: input is a
// scenario description (JSON, or a BOINC client_state.xml via -xml),
// plus flags selecting the job scheduling, job fetch and server
// deadline-check policies; output is the metrics report, an optional
// message log of scheduling decisions, and an optional timeline
// visualization (ASCII on stdout or SVG to a file).
//
// Usage:
//
//	bce [flags] scenario.json
//	bce -xml client_state.xml -sched JS-GLOBAL -fetch JF-HYSTERESIS
//	bce DIR/pop-0000042.json  # replay scenario 42 of a study (scengen -out DIR)
//
// Flags override the scenario file's policy selections.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"bce"
	"bce/internal/metrics"
)

func main() {
	var (
		xmlIn    = flag.String("xml", "", "import a BOINC client_state.xml instead of a JSON scenario")
		schedP   = flag.String("sched", "", "job scheduling policy: JS-LOCAL, JS-GLOBAL, JS-WRR")
		fetchP   = flag.String("fetch", "", "job fetch policy: JF-ORIG, JF-HYSTERESIS")
		halfLife = flag.Float64("rec-half-life", 0, "REC averaging half-life in seconds (JS-GLOBAL)")
		days     = flag.Float64("days", 0, "override emulation length in days")
		seed     = flag.Int64("seed", -1, "override random seed")
		logOut   = flag.Bool("log", false, "print the message log of scheduling decisions")
		ascii    = flag.Bool("timeline", false, "print an ASCII timeline of processor usage")
		svgOut   = flag.String("svg", "", "write an SVG timeline to this file")
		jsonOut  = flag.Bool("json", false, "print metrics as JSON")
	)
	flag.Parse()

	s, err := loadScenario(*xmlIn, flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	if *schedP != "" {
		s.Policies.JobSched = *schedP
	}
	if *fetchP != "" {
		s.Policies.JobFetch = *fetchP
	}
	if *halfLife > 0 {
		s.Policies.RECHalfLife = *halfLife
	}
	if *days > 0 {
		s.DurationDays = *days
	}
	if *seed >= 0 {
		s.Seed = *seed
	}

	cfg, err := s.Config()
	if err != nil {
		fatal(err)
	}
	cfg.RecordTimeline = *ascii || *svgOut != ""
	if *logOut {
		cfg.Log = os.Stderr
	}
	// Ctrl-C stops the emulation between simulator events.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := bce.RunConfigContext(ctx, cfg)
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		printJSON(res.Metrics)
	} else {
		printReport(s, res)
	}
	if *ascii && res.Timeline != nil {
		fmt.Println()
		fmt.Print(res.Timeline.ASCII(len(s.Projects), 100))
	}
	if *svgOut != "" && res.Timeline != nil {
		if err := os.WriteFile(*svgOut, []byte(res.Timeline.SVG(1200, 18)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "timeline written to %s\n", *svgOut)
	}
}

func loadScenario(xmlPath, jsonPath string) (*bce.Scenario, error) {
	switch {
	case xmlPath != "":
		f, err := os.Open(xmlPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return bce.ImportClientState(f)
	case jsonPath != "":
		return bce.LoadScenarioFile(jsonPath)
	}
	return nil, fmt.Errorf("usage: bce [flags] scenario.json (or -xml state.xml); see bce -h")
}

func printReport(s *bce.Scenario, res *bce.Result) {
	m := res.Metrics
	fmt.Printf("scenario: %s  (%d projects, %.3g days, seed %d)\n",
		s.Name, len(s.Projects), s.DurationDays, s.Seed)
	fmt.Printf("policies: sched=%s fetch=%s\n",
		orDefault(s.Policies.JobSched, "JS-LOCAL"), orDefault(s.Policies.JobFetch, "JF-HYSTERESIS"))
	fmt.Println()
	names := metrics.Names()
	for i, v := range m.Values() {
		fmt.Printf("  %-16s %.4f\n", names[i], v)
	}
	fmt.Println()
	fmt.Printf("  jobs completed   %d (%d missed deadline)\n", m.CompletedJobs, m.MissedJobs)
	fmt.Printf("  scheduler RPCs   %d\n", m.RPCs)
	fmt.Printf("  events simulated %d\n", res.Events)
	fmt.Printf("  processing used  %.4g peak-FLOPS-sec of %.4g available\n", m.UsedFLOPSsec, m.AvailFLOPSsec)
	for p, u := range m.UsedByProject {
		frac := 0.0
		if m.UsedFLOPSsec > 0 {
			frac = u / m.UsedFLOPSsec
		}
		fmt.Printf("    %-20s %5.1f%%  (dispatched %d, refused %d)\n",
			s.Projects[p].Name, 100*frac, res.Dispatched[p], res.Refused[p])
	}
}

func printJSON(m bce.Metrics) {
	names := metrics.Names()
	fmt.Print("{")
	for i, v := range m.Values() {
		if i > 0 {
			fmt.Print(",")
		}
		fmt.Printf("%q:%g", names[i], v)
	}
	fmt.Printf(",%q:%d,%q:%d,%q:%d}\n", "jobs", m.CompletedJobs, "missed", m.MissedJobs, "rpcs", m.RPCs)
}

func orDefault(s, d string) string {
	if s == "" {
		return d
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bce:", err)
	os.Exit(1)
}
