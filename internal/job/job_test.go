package job

import (
	"math"
	"testing"
	"testing/quick"

	"bce/internal/host"
)

func cpuTask() *Task {
	return &Task{
		Name:             "t1",
		Usage:            Usage{AvgCPUs: 1},
		Duration:         1000,
		EstDuration:      1000,
		Deadline:         2000,
		CheckpointPeriod: 60,
	}
}

func TestStateString(t *testing.T) {
	names := map[State]string{
		Queued: "queued", Running: "running", Preempted: "preempted",
		Done: "done", Reported: "reported", State(42): "State(42)",
	}
	for s, want := range names {
		if s.String() != want {
			t.Fatalf("State(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestUsageType(t *testing.T) {
	cpu := Usage{AvgCPUs: 2}
	if cpu.Type() != host.CPU || cpu.IsGPU() || cpu.Instances() != 2 {
		t.Fatalf("CPU usage misclassified: %+v", cpu)
	}
	gpu := Usage{AvgCPUs: 0.2, GPUType: host.NvidiaGPU, GPUUsage: 0.5}
	if gpu.Type() != host.NvidiaGPU || !gpu.IsGPU() || gpu.Instances() != 0.5 {
		t.Fatalf("GPU usage misclassified: %+v", gpu)
	}
}

func TestUsagePeakFLOPS(t *testing.T) {
	h := host.StdHost(4, 10e9, 1, 100e9)
	gpu := Usage{AvgCPUs: 0.5, GPUType: host.NvidiaGPU, GPUUsage: 1}
	if got := gpu.PeakFLOPS(&h.Hardware); got != 105e9 {
		t.Fatalf("PeakFLOPS = %v, want 105e9", got)
	}
	cpu := Usage{AvgCPUs: 2}
	if got := cpu.PeakFLOPS(&h.Hardware); got != 20e9 {
		t.Fatalf("PeakFLOPS = %v, want 20e9", got)
	}
}

func TestUsageValidate(t *testing.T) {
	bad := []Usage{
		{},
		{AvgCPUs: -1},
		{AvgCPUs: 1, GPUUsage: -0.5, GPUType: host.NvidiaGPU},
		{GPUUsage: 1, GPUType: host.CPU}, // GPU usage with CPU type
	}
	for i, u := range bad {
		if u.Validate() == nil {
			t.Fatalf("case %d: Validate accepted %+v", i, u)
		}
	}
	if (Usage{AvgCPUs: 1}).Validate() != nil {
		t.Fatal("Validate rejected plain CPU usage")
	}
	if (Usage{AvgCPUs: 0.2, GPUType: host.AtiGPU, GPUUsage: 1}).Validate() != nil {
		t.Fatal("Validate rejected ATI GPU usage")
	}
}

func TestAdvanceToCompletion(t *testing.T) {
	tk := cpuTask()
	tk.Start(0)
	if done := tk.Advance(999, 999); done {
		t.Fatal("task completed early")
	}
	if done := tk.Advance(1, 1000); !done {
		t.Fatal("task did not complete at full duration")
	}
	if tk.State != Done || tk.CompletedAt != 1000 || tk.MissedDeadline {
		t.Fatalf("completion state wrong: %+v", tk)
	}
	if tk.Remaining() != 0 {
		t.Fatal("remaining wrong after completion")
	}
}

func TestMissedDeadline(t *testing.T) {
	tk := cpuTask()
	tk.Start(0)
	tk.Advance(1000, 3000) // completes at t=3000, deadline 2000
	if !tk.MissedDeadline {
		t.Fatal("completion after deadline not flagged")
	}
}

func TestCheckpointRollforward(t *testing.T) {
	tk := cpuTask() // checkpoint every 60 s
	tk.Start(0)
	tk.Advance(150, 150)
	if tk.Checkpointed != 120 {
		t.Fatalf("Checkpointed = %v, want 120 (last 60 s boundary)", tk.Checkpointed)
	}
	if got := tk.SinceCheckpoint(); got != 30 {
		t.Fatalf("SinceCheckpoint = %v, want 30", got)
	}
}

func TestPreemptLosesUncheckpointedWork(t *testing.T) {
	tk := cpuTask()
	tk.Start(0)
	tk.Advance(150, 150)
	lost := tk.Preempt(true)
	if lost != 30 {
		t.Fatalf("lost = %v, want 30", lost)
	}
	if tk.Work != 120 || tk.State != Preempted {
		t.Fatalf("post-preempt state wrong: work=%v state=%v", tk.Work, tk.State)
	}
}

func TestPreemptLeaveInMemory(t *testing.T) {
	tk := cpuTask()
	tk.Start(0)
	tk.Advance(150, 150)
	if lost := tk.Preempt(false); lost != 0 {
		t.Fatalf("leave-in-memory preempt lost %v, want 0", lost)
	}
	if tk.Work != 150 {
		t.Fatalf("work = %v, want 150", tk.Work)
	}
}

func TestNeverCheckpointingApp(t *testing.T) {
	tk := cpuTask()
	tk.CheckpointPeriod = 0 // extension: app never checkpoints
	tk.Start(0)
	tk.Advance(700, 700)
	if lost := tk.Preempt(true); lost != 700 {
		t.Fatalf("non-checkpointing app lost %v, want all 700", lost)
	}
	if tk.Work != 0 {
		t.Fatalf("work = %v, want 0", tk.Work)
	}
}

func TestPreemptNotRunningNoop(t *testing.T) {
	tk := cpuTask()
	if lost := tk.Preempt(true); lost != 0 || tk.State != Queued {
		t.Fatal("preempting a queued task should be a no-op")
	}
}

func TestAdvanceIgnoredWhenNotRunning(t *testing.T) {
	tk := cpuTask()
	if tk.Advance(100, 100) || tk.Work != 0 {
		t.Fatal("Advance on non-running task should do nothing")
	}
}

func TestEstRemainingScalesWithEstimate(t *testing.T) {
	tk := cpuTask()
	tk.EstDuration = 2000 // server thinks it's twice as long
	tk.Start(0)
	tk.Advance(500, 500) // half done
	if got := tk.EstRemaining(); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("EstRemaining = %v, want 1000", got)
	}
}

func TestTaskValidate(t *testing.T) {
	good := cpuTask()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid task rejected: %v", err)
	}
	cases := []func(*Task){
		func(tk *Task) { tk.Duration = 0 },
		func(tk *Task) { tk.EstDuration = 0 },
		func(tk *Task) { tk.Deadline = -1; tk.ReceivedAt = 0 },
		func(tk *Task) { tk.Usage = Usage{} },
	}
	for i, mutate := range cases {
		tk := cpuTask()
		mutate(tk)
		if tk.Validate() == nil {
			t.Fatalf("case %d: Validate accepted invalid task", i)
		}
	}
}

// Property: Work never exceeds Duration, Checkpointed never exceeds
// Work, and SinceCheckpoint is never negative, for any sequence of
// advances and preemptions.
func TestPropertyCheckpointInvariants(t *testing.T) {
	f := func(steps []uint16, preemptMask uint32) bool {
		tk := cpuTask()
		tk.Duration = 5000
		tk.EstDuration = 5000
		now := 0.0
		tk.Start(now)
		for i, s := range steps {
			if tk.Finished() {
				break
			}
			dt := float64(s % 500)
			now += dt
			tk.Advance(dt, now)
			if preemptMask&(1<<uint(i%32)) != 0 && !tk.Finished() {
				tk.Preempt(i%2 == 0)
				tk.Start(now)
			}
			if tk.Work > tk.Duration+1e-9 {
				return false
			}
			if tk.Checkpointed > tk.Work+1e-9 {
				return false
			}
			if tk.SinceCheckpoint() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
