package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricSpec names one reported number. Every workload reports every
// metric of its kind, so any two versions of the code can compare any
// (workload, metric) pair; a layer a workload never enters reports 0.
type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed relative worsening of the median
}

// endToEnd are the numbers a user sees, measured with tracing off.
// Every bound is 0.25, the widest allowed: on the 2-vCPU VM the
// benchmark was tuned on, identical work moved by 20% and more between
// runs minutes apart (see README.md, "Noise").
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"max_rss_mb", "MiB", "lower", 0.25},
	{"client_days_per_s", "client-days/s", "higher", 0.25},
	{"scen_per_s", "scenarios/s", "higher", 0.25},
	{"rps", "req/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p99_ms", "ms", "lower", 0.25},
}

// perLayer are the traced run's numbers, one block per layer.
var perLayer = []metricSpec{
	{"rrsim.cpu_share", "fraction", "lower", 0},
	{"sched.cpu_share", "fraction", "lower", 0},
	{"sim.cpu_share", "fraction", "lower", 0},
	{"sim.events_per_day", "events/day", "lower", 0},
	{"sim.events_per_cell", "events/cell", "lower", 0},
	{"fetch.cpu_share", "fraction", "lower", 0},
	{"fetch.rpcs_per_day", "rpcs/day", "lower", 0},
	{"fetch.jobs_per_rpc", "jobs/rpc", "higher", 0},
	{"project.cpu_share", "fraction", "lower", 0},
	{"project.jobs_per_day", "jobs/day", "higher", 0},
	{"account.cpu_share", "fraction", "lower", 0},
	{"metrics.cpu_share", "fraction", "lower", 0},
	{"job.cpu_share", "fraction", "lower", 0},
	{"client.cpu_share", "fraction", "lower", 0},
	{"client.run_ms_per_day", "ms/day", "lower", 0},
	{"client.new_us", "us", "lower", 0},
	{"scenario.config_us", "us", "lower", 0},
	{"stats.cpu_share", "fraction", "lower", 0},
	{"runtime.cpu_share", "fraction", "lower", 0},
	{"runtime.allocs_per_day", "allocs/day", "lower", 0},
	{"runtime.bytes_per_day", "B/day", "lower", 0},
	{"runner.batch_share", "fraction", "higher", 0},
	{"runner.make_us", "us", "lower", 0},
	{"population.cpu_share", "fraction", "lower", 0},
	{"population.outside_batch_ms", "ms", "lower", 0},
	{"population.checkpoint_kb", "KiB", "lower", 0},
	{"fabric.cpu_share", "fraction", "lower", 0},
	{"fabric.overhead_ratio", "ratio", "lower", 0},
	{"fabric.outside_batch_ms", "ms", "lower", 0},
	{"sharded_scen_per_s", "scenarios/s", "higher", 0},
	{"serve.cpu_share", "fraction", "lower", 0},
	{"serve.queue_wait_p50_ms", "ms", "lower", 0},
	{"serve.queue_wait_p99_ms", "ms", "lower", 0},
	{"serve.exec_p50_ms", "ms", "lower", 0},
	{"serve.exec_p99_ms", "ms", "lower", 0},
	{"serve.hit_p50_ms", "ms", "lower", 0},
	{"serve.cache_hit_ratio", "fraction", "higher", 0},
	{"serve.runs_per_miss", "runs/miss", "lower", 0},
	{"web.cpu_share", "fraction", "lower", 0},
	{"web.sync_p50_ms", "ms", "lower", 0},
	{"web.submit_p50_ms", "ms", "lower", 0},
	{"web.result_p50_ms", "ms", "lower", 0},
	{"timeline.cpu_share", "fraction", "lower", 0},
	{"bench.cpu_share", "fraction", "lower", 0},
	{"other.cpu_share", "fraction", "lower", 0},
	{"trace_overhead", "fraction", "lower", 0},
}

// cpuLayers are the buckets of the CPU-profile attribution that get
// their own <layer>.cpu_share metric; every other bce/internal module
// is folded into "other".
var cpuLayers = []string{
	"rrsim", "sched", "sim", "fetch", "project", "account", "metrics", "job",
	"client", "stats", "runtime", "population", "fabric", "serve", "web",
	"timeline", "bench",
}

// runSeconds is how long one run measures; see BENCHMARK.json.
const runSeconds = 20

// manifest is BENCHMARK.json, the benchmark's contract, generated from the
// registry so the file and the program cannot drift apart.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "e2ebench/run.sh"},
		Paths:      []string{"e2ebench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{w.name, w.why})
	}
	for _, s := range endToEnd {
		b := s.bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{s.name, s.unit, s.better, &b})
	}
	for _, s := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{s.name, s.unit, s.better, nil})
	}
	return m
}

func manifestJSON() ([]byte, error) {
	b, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func writeManifest(path string) error {
	b, err := manifestJSON()
	if err != nil {
		return fmt.Errorf("encode manifest: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}
