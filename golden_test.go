package bce_test

// End-to-end golden tests freezing the emulator's exact outputs. The
// kernel speed campaign (sim event loop, scheduling scans, fetch
// evaluation, rr_sim inner loop) rewrites hot paths under a strict
// contract: results must stay bit-identical, because the figures of
// merit are reproduced to the last bit across runs and any last-ulp
// drift would surface as a spurious policy difference. These fixtures
// were generated before the campaign (go test -run TestGoldenEmulation
// -update) and every optimization since must leave them untouched.
//
// The scenario set deliberately crosses the hot paths being rewritten:
// every job-scheduling and job-fetch policy, finite-bandwidth transfers
// under each ordering policy, GPU seating, availability churn,
// checkpoint loss, many-project fetch scans, and a deep job-heavy
// queue that stresses the round-robin simulation.

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"bce"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures")

const goldenPath = "testdata/golden_emulation.json"

// goldenRecord is everything observable from one run that downstream
// consumers aggregate: the full metrics report, the event count, and
// the per-project server counters.
type goldenRecord struct {
	Metrics    bce.Metrics `json:"metrics"`
	Events     uint64      `json:"events"`
	Dispatched []int       `json:"dispatched"`
	Refused    []int       `json:"refused"`
}

func goldenScenarios() []*bce.Scenario {
	app := func(name string, ncpus, mean, latency float64) bce.AppJSON {
		return bce.AppJSON{Name: name, NCPUs: ncpus, MeanSecs: mean, LatencySecs: latency}
	}
	base := func(name string, days float64, seed int64, pol bce.Policies) *bce.Scenario {
		return &bce.Scenario{
			Name: name, DurationDays: days, Seed: seed, Policies: pol,
			Host: bce.HostJSON{NCPU: 4, CPUGFlops: 1, MinQueueHours: 1, MaxQueueHours: 4},
			Projects: []bce.ProjectJSON{
				{Name: "a", Share: 100, Apps: []bce.AppJSON{app("x", 1, 1200, 86400)}},
				{Name: "b", Share: 100, Apps: []bce.AppJSON{app("y", 1, 2400, 86400)}},
			},
		}
	}

	var out []*bce.Scenario

	// Scheduling-policy × fetch-policy cross on the standard host.
	for _, js := range []string{"JS-LOCAL", "JS-GLOBAL", "JS-WRR", "JS-LLF"} {
		out = append(out, base("sched-"+js, 2, 7, bce.Policies{JobSched: js, JobFetch: "JF-ORIG"}))
	}
	for _, jf := range []string{"JF-ORIG", "JF-HYSTERESIS", "JF-SPREAD"} {
		out = append(out, base("fetch-"+jf, 2, 11, bce.Policies{JobFetch: jf}))
	}

	// Deep queue: every scheduling point pays a full rr_sim pass.
	out = append(out, &bce.Scenario{
		Name: "jobheavy", DurationDays: 0.1, Seed: 1,
		Host: bce.HostJSON{NCPU: 4, CPUGFlops: 1, MinQueueHours: 36, MaxQueueHours: 48},
		Projects: []bce.ProjectJSON{
			{Name: "a", Share: 100, Apps: []bce.AppJSON{app("x", 1, 600, 4*86400)}},
			{Name: "b", Share: 100, Apps: []bce.AppJSON{app("y", 1, 600, 4*86400)}},
		},
	})

	// The slowest host shape of the fleet deck: a 36 h buffer of short
	// jobs on 16 CPUs keeps well over a thousand tasks queued, nearly
	// all deadline-endangered, so every pass drains long rr_sim groups
	// and orders a deep endangered list.
	out = append(out, &bce.Scenario{
		Name: "deep-endangered", DurationDays: 0.25, Seed: 21,
		Host: bce.HostJSON{NCPU: 16, CPUGFlops: 5, MemGB: 32, MinQueueHours: 8, MaxQueueHours: 36},
		Projects: []bce.ProjectJSON{
			{Name: "a", Share: 200, Apps: []bce.AppJSON{
				{Name: "x", NCPUs: 1, MeanSecs: 580, StdevSecs: 80, LatencySecs: 2200},
			}},
			{Name: "b", Share: 25, Apps: []bce.AppJSON{
				{Name: "y", NCPUs: 1, MeanSecs: 330, StdevSecs: 80, LatencySecs: 7100},
			}},
		},
	})

	// GPU + CPU mix with distinct shares and an unavailable stretch.
	out = append(out, &bce.Scenario{
		Name: "gpu-mix", DurationDays: 2, Seed: 3,
		Host: bce.HostJSON{
			NCPU: 4, CPUGFlops: 1, NGPU: 1, GPUGFlops: 20,
			MinQueueHours: 1, MaxQueueHours: 6,
			Avail:    bce.AvailJSON{MeanOnHours: 10, MeanOffHours: 4},
			GPUAvail: bce.AvailJSON{MeanOnHours: 20, MeanOffHours: 4},
		},
		Projects: []bce.ProjectJSON{
			{Name: "cpuproj", Share: 300, Apps: []bce.AppJSON{app("c", 1, 3000, 86400)}},
			{Name: "gpuproj", Share: 100, Apps: []bce.AppJSON{
				{Name: "g", NCPUs: 0.2, NGPUs: 1, MeanSecs: 900, LatencySecs: 43200},
			}},
		},
	})

	// Finite link with mixed data-heavy apps under each transfer policy.
	for _, tp := range []string{"fifo", "smallest-first", "edf"} {
		out = append(out, &bce.Scenario{
			Name: "xfer-" + tp, DurationDays: 1, Seed: 5,
			Host: bce.HostJSON{
				NCPU: 2, CPUGFlops: 2, MinQueueHours: 1, MaxQueueHours: 4,
				DownMbps: 8, UpMbps: 8,
				NetAvail: bce.AvailJSON{MeanOnHours: 6, MeanOffHours: 1},
			},
			Projects: []bce.ProjectJSON{
				{Name: "mix", Share: 100, Apps: []bce.AppJSON{
					{Name: "urgent", NCPUs: 1, MeanSecs: 600, LatencySecs: 1800, InputMB: 300, OutputMB: 5},
					{Name: "bulk", NCPUs: 1, MeanSecs: 1200, LatencySecs: 86400, InputMB: 100, OutputMB: 5},
				}},
			},
			Policies: bce.Policies{Transfers: tp},
		})
	}

	// Rare checkpoints: preemption loses work (exercises lost-work
	// accounting through the preempt path).
	out = append(out, &bce.Scenario{
		Name: "checkpoint-loss", DurationDays: 1, Seed: 13,
		Host: bce.HostJSON{NCPU: 1, CPUGFlops: 1, MinQueueHours: 1, MaxQueueHours: 3},
		Projects: []bce.ProjectJSON{
			{Name: "a", Share: 100, Apps: []bce.AppJSON{
				{Name: "x", NCPUs: 1, MeanSecs: 4000, LatencySecs: 864000, CheckpointS: -1},
			}},
			{Name: "b", Share: 100, Apps: []bce.AppJSON{
				{Name: "y", NCPUs: 1, MeanSecs: 4000, LatencySecs: 864000, CheckpointS: 120},
			}},
		},
	})

	// Many projects with server downtime and dry spells: fetch scans and
	// backoff handling across eight servers.
	many := &bce.Scenario{
		Name: "many-projects", DurationDays: 2, Seed: 17,
		Host: bce.HostJSON{NCPU: 8, CPUGFlops: 1.5, MinQueueHours: 2, MaxQueueHours: 8},
		Policies: bce.Policies{
			JobSched: "JS-GLOBAL", JobFetch: "JF-HYSTERESIS", RECHalfLife: 5 * 86400,
		},
	}
	for i := 0; i < 8; i++ {
		p := bce.ProjectJSON{
			Name:  string(rune('a' + i)),
			Share: float64(50 * (i + 1)),
			Apps:  []bce.AppJSON{app("app", 1, float64(600+300*i), 2*86400)},
		}
		if i%3 == 0 {
			p.Downtime = bce.AvailJSON{MeanOnHours: 12, MeanOffHours: 2}
		}
		if i%4 == 1 {
			p.WorkGaps = bce.AvailJSON{MeanOnHours: 8, MeanOffHours: 3}
		}
		many.Projects = append(many.Projects, p)
	}
	out = append(out, many)

	return out
}

// TestGoldenEmulation runs every golden scenario and requires the
// recorded outputs to match the committed fixtures bit for bit.
func TestGoldenEmulation(t *testing.T) {
	scns := goldenScenarios()
	got := make(map[string]goldenRecord, len(scns))
	for _, s := range scns {
		res, err := bce.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if _, dup := got[s.Name]; dup {
			t.Fatalf("duplicate golden scenario name %q", s.Name)
		}
		got[s.Name] = goldenRecord{
			Metrics:    res.Metrics,
			Events:     res.Events,
			Dispatched: res.Dispatched,
			Refused:    res.Refused,
		}
	}

	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d scenarios", goldenPath, len(got))
		return
	}

	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden fixtures (run with -update to generate): %v", err)
	}
	var want map[string]goldenRecord
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("corrupt golden fixtures: %v", err)
	}
	if len(want) != len(got) {
		t.Errorf("fixture has %d scenarios, test produced %d", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: missing from this run", name)
			continue
		}
		compareGolden(t, name, w, g)
	}
}

// compareGolden reports any field that drifted. Floats are compared
// exactly: the determinism contract (DESIGN.md §10) promises
// bit-identical reproduction, and JSON round-trips float64 exactly.
func compareGolden(t *testing.T, name string, w, g goldenRecord) {
	t.Helper()
	if g.Events != w.Events {
		t.Errorf("%s: events = %d, golden %d", name, g.Events, w.Events)
	}
	if !floatsEq(g.Metrics.Values(), w.Metrics.Values()) {
		t.Errorf("%s: figures of merit drifted:\n got  %v\n want %v",
			name, g.Metrics.Values(), w.Metrics.Values())
	}
	gm, wm := g.Metrics, w.Metrics
	if gm.RPCs != wm.RPCs || gm.CompletedJobs != wm.CompletedJobs || gm.MissedJobs != wm.MissedJobs {
		t.Errorf("%s: counters drifted: got rpcs=%d jobs=%d missed=%d, want rpcs=%d jobs=%d missed=%d",
			name, gm.RPCs, gm.CompletedJobs, gm.MissedJobs, wm.RPCs, wm.CompletedJobs, wm.MissedJobs)
	}
	for _, f := range []struct {
		label     string
		got, want float64
	}{
		{"used_flops_sec", gm.UsedFLOPSsec, wm.UsedFLOPSsec},
		{"wasted_flops_sec", gm.WastedFLOPSsec, wm.WastedFLOPSsec},
		{"lost_flops_sec", gm.LostFLOPSsec, wm.LostFLOPSsec},
		{"avail_flops_sec", gm.AvailFLOPSsec, wm.AvailFLOPSsec},
	} {
		if !floatEq(f.got, f.want) {
			t.Errorf("%s: %s = %v, golden %v", name, f.label, f.got, f.want)
		}
	}
	if !intSliceEq(g.Dispatched, w.Dispatched) || !intSliceEq(g.Refused, w.Refused) {
		t.Errorf("%s: server counters drifted: got %v/%v, want %v/%v",
			name, g.Dispatched, g.Refused, w.Dispatched, w.Refused)
	}
	if len(gm.UsedByProject) != len(wm.UsedByProject) {
		t.Errorf("%s: per-project usage length %d, golden %d",
			name, len(gm.UsedByProject), len(wm.UsedByProject))
	} else {
		for i := range gm.UsedByProject {
			if !floatEq(gm.UsedByProject[i], wm.UsedByProject[i]) {
				t.Errorf("%s: project %d usage = %v, golden %v",
					name, i, gm.UsedByProject[i], wm.UsedByProject[i])
			}
		}
	}
}

func floatEq(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

func floatsEq(a, b [5]float64) bool {
	for i := range a {
		if !floatEq(a[i], b[i]) {
			return false
		}
	}
	return true
}

func intSliceEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
