package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"bce/internal/host"
	"bce/internal/job"
)

func hw1() *host.Hardware {
	h := host.StdHost(1, 1e9, 0, 0)
	return &h.Hardware
}

func mkTask(p int) *job.Task {
	return &job.Task{Project: p, Usage: job.Usage{AvgCPUs: 1},
		Duration: 100, EstDuration: 100, Deadline: 1e9}
}

func TestIdleFraction(t *testing.T) {
	r := New(hw1(), []float64{1})
	r.OnAvailable(0, 1000)
	tk := mkTask(0)
	r.OnRun(0, 600, tk)
	m := r.Report()
	if math.Abs(m.IdleFraction-0.4) > 1e-9 {
		t.Fatalf("idle = %v, want 0.4", m.IdleFraction)
	}
	if m.UsedFLOPSsec != 600e9 || m.AvailFLOPSsec != 1000e9 {
		t.Fatalf("raw counters wrong: %+v", m)
	}
}

func TestIdleFractionNoCapacity(t *testing.T) {
	r := New(hw1(), []float64{1})
	m := r.Report()
	if m.IdleFraction != 0 || m.WastedFraction != 0 {
		t.Fatal("no-capacity run should report zeros")
	}
}

func TestWastedOnMissedDeadline(t *testing.T) {
	r := New(hw1(), []float64{1})
	r.OnAvailable(0, 1000)
	tk := mkTask(0)
	tk.MissedDeadline = true
	r.OnRun(0, 500, tk)
	r.OnComplete(tk)
	m := r.Report()
	if math.Abs(m.WastedFraction-0.5) > 1e-9 {
		t.Fatalf("wasted = %v, want 0.5", m.WastedFraction)
	}
	if m.MissedJobs != 1 || m.CompletedJobs != 1 {
		t.Fatalf("counters wrong: %+v", m)
	}
}

func TestOnTimeJobNotWasted(t *testing.T) {
	r := New(hw1(), []float64{1})
	r.OnAvailable(0, 1000)
	tk := mkTask(0)
	r.OnRun(0, 500, tk)
	r.OnComplete(tk)
	if m := r.Report(); m.WastedFraction != 0 || m.MissedJobs != 0 {
		t.Fatalf("on-time job wasted: %+v", m)
	}
}

func TestLostWorkIsWaste(t *testing.T) {
	r := New(hw1(), []float64{1})
	r.OnAvailable(0, 1000)
	tk := mkTask(0)
	r.OnRun(0, 300, tk)
	r.OnLostWork(tk, 100)
	m := r.Report()
	if math.Abs(m.WastedFraction-0.1) > 1e-9 {
		t.Fatalf("wasted = %v, want 0.1 (lost work)", m.WastedFraction)
	}
	if m.LostFLOPSsec != 100e9 {
		t.Fatalf("lost = %v, want 100e9", m.LostFLOPSsec)
	}
}

// A checkpoint-less job that is preempted (losing its progress) and
// later misses its deadline executes some FLOPS-seconds exactly once,
// so they must be wasted exactly once: the lost portion is inside the
// task's usage tally AND reported via OnLostWork, and must not be
// summed twice into WastedFLOPSsec.
func TestPreemptedMissedJobWastedOnce(t *testing.T) {
	r := New(hw1(), []float64{1})
	r.OnAvailable(0, 2000)
	tk := mkTask(0)
	tk.MissedDeadline = true
	// Runs 300 s, is preempted without a checkpoint (all 300 s lost),
	// then re-executes the full 100+300 = 400 s... keep it simple:
	// 300 s executed and lost, then 100 s executed to completion.
	r.OnRun(0, 300, tk)
	r.OnLostWork(tk, 300)
	r.OnRun(300, 400, tk)
	r.OnComplete(tk)
	m := r.Report()
	// 400 s executed in total at 1 GFLOPS — all of it waste, once.
	if m.WastedFLOPSsec != 400e9 {
		t.Fatalf("WastedFLOPSsec = %v, want 400e9 (counted once)", m.WastedFLOPSsec)
	}
	if m.WastedFLOPSsec > m.UsedFLOPSsec {
		t.Fatalf("wasted %v exceeds used %v", m.WastedFLOPSsec, m.UsedFLOPSsec)
	}
	if m.LostFLOPSsec != 300e9 {
		t.Fatalf("LostFLOPSsec = %v, want 300e9", m.LostFLOPSsec)
	}
	if math.Abs(m.WastedFraction-0.2) > 1e-9 {
		t.Fatalf("wasted fraction = %v, want 400/2000", m.WastedFraction)
	}
}

// Lost work on a job that then completes on time is still waste (the
// re-executed portion was paid for twice), but only the lost portion.
func TestLostWorkOnTimeJobWastedOnce(t *testing.T) {
	r := New(hw1(), []float64{1})
	r.OnAvailable(0, 2000)
	tk := mkTask(0)
	r.OnRun(0, 50, tk)
	r.OnLostWork(tk, 50)
	r.OnRun(50, 150, tk) // redo + finish on time
	r.OnComplete(tk)
	m := r.Report()
	if m.WastedFLOPSsec != 50e9 {
		t.Fatalf("WastedFLOPSsec = %v, want 50e9 (lost portion only)", m.WastedFLOPSsec)
	}
}

func TestShareViolationPerfect(t *testing.T) {
	r := New(hw1(), []float64{1, 1})
	r.OnAvailable(0, 1000)
	r.OnRun(0, 500, mkTask(0))
	r.OnRun(500, 1000, mkTask(1))
	if m := r.Report(); m.ShareViolation > 1e-9 {
		t.Fatalf("violation = %v, want 0 for perfect split", m.ShareViolation)
	}
}

func TestShareViolationTotal(t *testing.T) {
	r := New(hw1(), []float64{1, 1})
	r.OnAvailable(0, 1000)
	r.OnRun(0, 1000, mkTask(0)) // project 1 starved
	m := r.Report()
	if math.Abs(m.ShareViolation-0.5) > 1e-9 {
		t.Fatalf("violation = %v, want RMS(0.5,-0.5) = 0.5", m.ShareViolation)
	}
}

func TestMonotonyAlternating(t *testing.T) {
	r := New(hw1(), []float64{1, 1})
	r.window = 100
	// Alternate projects every window: each window is single-project.
	for w := 0; w < 10; w++ {
		t0 := float64(w) * 100
		r.OnRun(t0, t0+100, mkTask(w%2))
	}
	m := r.Report()
	if math.Abs(m.Monotony-1) > 1e-9 {
		t.Fatalf("monotony = %v, want 1 (one project at a time)", m.Monotony)
	}
}

func TestMonotonyMixed(t *testing.T) {
	r := New(hw1(), []float64{1, 1})
	r.window = 100
	// Both projects evenly in every window.
	for w := 0; w < 10; w++ {
		t0 := float64(w) * 100
		r.OnRun(t0, t0+100, mkTask(0))
		r.OnRun(t0, t0+100, mkTask(1))
	}
	m := r.Report()
	if m.Monotony > 1e-9 {
		t.Fatalf("monotony = %v, want 0 (perfectly mixed)", m.Monotony)
	}
}

func TestMonotonySingleProjectZero(t *testing.T) {
	r := New(hw1(), []float64{1})
	r.OnRun(0, 1000, mkTask(0))
	if m := r.Report(); m.Monotony != 0 {
		t.Fatalf("monotony with one project = %v, want 0", m.Monotony)
	}
}

func TestRunSpanningWindows(t *testing.T) {
	r := New(hw1(), []float64{1, 1})
	r.window = 100
	// One run crosses three windows.
	r.OnRun(50, 250, mkTask(0))
	r.OnRun(0, 300, mkTask(1))
	m := r.Report()
	// Window 0: p0 50, p1 100 → max 2/3; window 1: p0 100, p1 100 → 1/2;
	// window 2: p0 50, p1 100 → 2/3. Rescaled: (2/3-1/2)/(1/2)=1/3, 0, 1/3.
	want := (1.0/3 + 0 + 1.0/3) / 3
	if math.Abs(m.Monotony-want) > 1e-9 {
		t.Fatalf("monotony = %v, want %v", m.Monotony, want)
	}
}

func TestRPCsPerJob(t *testing.T) {
	r := New(hw1(), []float64{1})
	for i := 0; i < 5; i++ {
		r.OnRPC()
	}
	for i := 0; i < 15; i++ {
		tk := mkTask(0)
		r.OnRun(0, 1, tk)
		r.OnComplete(tk)
	}
	m := r.Report()
	if math.Abs(m.RPCsPerJob-0.25) > 1e-9 {
		t.Fatalf("rpcs/job = %v, want 5/20", m.RPCsPerJob)
	}
	if m.RPCs != 5 || m.CompletedJobs != 15 {
		t.Fatalf("counters wrong: %+v", m)
	}
}

func TestValuesAndNames(t *testing.T) {
	m := Metrics{IdleFraction: 1, WastedFraction: 2, ShareViolation: 3, Monotony: 4, RPCsPerJob: 5}
	v := m.Values()
	if v != [5]float64{1, 2, 3, 4, 5} {
		t.Fatalf("Values() = %v", v)
	}
	n := Names()
	if n[0] != "idle" || n[4] != "rpcs_per_job" {
		t.Fatalf("Names() = %v", n)
	}
	if m.String() == "" {
		t.Fatal("String() empty")
	}
}

func TestZeroLengthEventsIgnored(t *testing.T) {
	r := New(hw1(), []float64{1})
	r.OnAvailable(10, 10)
	r.OnRun(10, 10, mkTask(0))
	r.OnLostWork(mkTask(0), 0)
	m := r.Report()
	if m.UsedFLOPSsec != 0 || m.AvailFLOPSsec != 0 || m.WastedFLOPSsec != 0 {
		t.Fatalf("zero-length events counted: %+v", m)
	}
}

// Property: all five figures of merit stay in [0,1] for arbitrary
// event sequences.
func TestPropertyMetricsInRange(t *testing.T) {
	f := func(runs [10]uint16, missMask uint16, rpcs uint8) bool {
		r := New(hw1(), []float64{2, 1, 1})
		r.OnAvailable(0, 5000)
		now := 0.0
		for i, d := range runs {
			dt := float64(d % 500)
			tk := mkTask(i % 3)
			tk.MissedDeadline = missMask&(1<<uint(i)) != 0
			r.OnRun(now, now+dt, tk)
			r.OnComplete(tk)
			now += dt
		}
		for i := 0; i < int(rpcs%20); i++ {
			r.OnRPC()
		}
		m := r.Report()
		for _, v := range m.Values() {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
