// Package job models BOINC jobs as seen by the client: device usage
// (possibly fractional CPUs and GPU instances), true and estimated
// durations, deadlines derived from the project latency bound, and the
// checkpoint/restart behaviour that determines how much progress is lost
// on preemption.
package job

import (
	"fmt"

	"bce/internal/host"
	"bce/internal/invariant"
)

// State is a task's lifecycle state on the client.
type State int

const (
	// Queued means downloaded, not yet started.
	Queued State = iota
	// Running means currently executing.
	Running
	// Preempted means started, currently suspended.
	Preempted
	// Done means execution finished (possibly past the deadline).
	Done
	// Reported means the completion has been reported to the server.
	Reported
	// Downloading means the task's input files are still in transfer;
	// it cannot run yet (file-transfer extension, paper §6.2).
	Downloading
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Preempted:
		return "preempted"
	case Done:
		return "done"
	case Reported:
		return "reported"
	case Downloading:
		return "downloading"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Usage describes the processing resources one job occupies while
// running (paper §2.3). GPUUsage applies to GPUType and may be
// fractional; AvgCPUs may also be fractional (e.g. the CPU thread
// feeding a GPU kernel).
type Usage struct {
	AvgCPUs  float64
	GPUType  host.ProcType // host.CPU when the job uses no GPU
	GPUUsage float64       // instances of GPUType; 0 for CPU jobs
	MemBytes float64       // working set size
}

// Type returns the processor type the job is scheduled against: its GPU
// type for GPU jobs, otherwise CPU. The paper calls jobs with GPUUsage>0
// "GPU jobs".
func (u Usage) Type() host.ProcType {
	if u.IsGPU() {
		return u.GPUType
	}
	return host.CPU
}

// IsGPU reports whether the job uses a coprocessor.
func (u Usage) IsGPU() bool { return u.GPUUsage > 0 && u.GPUType.IsGPU() }

// Instances returns the number of instances of the scheduled type the
// job occupies (AvgCPUs for CPU jobs, GPUUsage for GPU jobs).
func (u Usage) Instances() float64 {
	if u.IsGPU() {
		return u.GPUUsage
	}
	return u.AvgCPUs
}

// PeakFLOPS returns the peak FLOPS of the devices the job occupies on
// hw; this weights accounting and the figures of merit.
func (u Usage) PeakFLOPS(hw *host.Hardware) float64 {
	f := float64(u.AvgCPUs * hw.Proc[host.CPU].FLOPSPerInst)
	if u.IsGPU() {
		f += float64(u.GPUUsage * hw.Proc[u.GPUType].FLOPSPerInst)
	}
	return f
}

// Validate reports structural problems with the usage.
func (u Usage) Validate() error {
	if u.AvgCPUs < 0 || u.GPUUsage < 0 {
		return fmt.Errorf("job: negative device usage %+v", u)
	}
	if u.AvgCPUs == 0 && u.GPUUsage == 0 {
		return fmt.Errorf("job: uses no devices")
	}
	if u.GPUUsage > 0 && !u.GPUType.IsGPU() {
		return fmt.Errorf("job: GPUUsage %v with non-GPU type %v", u.GPUUsage, u.GPUType)
	}
	return nil
}

// Task is one job instance held by the client.
type Task struct {
	Name    string
	Project int // index of the owning project in the scenario
	Usage   Usage

	// Duration is the true wall-clock seconds of execution the task
	// needs with its full device allocation. EstDuration is the a
	// priori estimate the server and client plan with; it differs from
	// Duration when the scenario injects estimate errors.
	Duration    float64
	EstDuration float64

	ReceivedAt float64 // when the client got the task
	Deadline   float64 // ReceivedAt + project latency bound

	// CheckpointPeriod is the seconds of execution between checkpoints;
	// <= 0 means the application never checkpoints (all progress is
	// lost when the task is preempted out of memory).
	CheckpointPeriod float64

	// InputBytes/OutputBytes are the job's file sizes; with a finite
	// link speed the task must download its inputs before running and
	// upload its outputs before it can be reported.
	InputBytes  float64
	OutputBytes float64

	State          State
	Work           float64 // seconds of execution completed
	Checkpointed   float64 // seconds of execution saved by the last checkpoint
	StartedAt      float64 // last time it entered Running
	StartWork      float64 // Work when it last entered Running
	CompletedAt    float64 // when Work reached Duration
	MissedDeadline bool
	EverRan        bool

	// DeadlineFlagged latches the round-robin simulation's endangered
	// verdict: once a task has been classified deadline-endangered it
	// stays promoted until it finishes. Without the latch the
	// classification flips at the deadline boundary (running the job
	// makes it look safe, so it is preempted and becomes endangered
	// again), and the resulting thrash makes the job miss by seconds.
	DeadlineFlagged bool
}

// Remaining returns the seconds of execution still needed.
func (t *Task) Remaining() float64 {
	r := t.Duration - t.Work
	if r < 0 {
		return 0
	}
	return r
}

// EstRemaining returns the estimated seconds of execution still needed,
// scaling the remaining fraction by the estimated duration. The client
// plans (round-robin simulation, work fetch) with estimates, not truth.
func (t *Task) EstRemaining() float64 {
	if t.Duration <= 0 {
		return 0
	}
	frac := 1 - t.Work/t.Duration
	if frac < 0 {
		frac = 0
	}
	return frac * t.EstDuration
}

// Start marks the task running at time now.
func (t *Task) Start(now float64) {
	t.State = Running
	t.StartedAt = now
	t.StartWork = t.Work
	t.EverRan = true
}

// CheckpointedSinceStart reports whether the task has reached a
// checkpoint during its current run session. The scheduler protects
// running tasks only until their first checkpoint (paper §3.3:
// "running jobs that have not checkpointed yet have precedence") —
// after that, preempting them loses at most one checkpoint period.
func (t *Task) CheckpointedSinceStart() bool {
	return t.Checkpointed > t.StartWork
}

// Advance credits dt seconds of execution to a running task, rolling
// the checkpoint forward to the last checkpoint boundary passed. It
// returns true if the task completed.
func (t *Task) Advance(dt float64, now float64) bool {
	if t.State != Running || dt < 0 {
		return false
	}
	t.Work += dt
	if invariant.Enabled {
		invariant.Check(t.Work >= 0,
			"job %s: negative completed work %v after advancing %v", t.Name, t.Work, dt)
		invariant.Check(t.Work <= t.Duration+dt,
			"job %s: work %v overran duration %v by more than the step %v", t.Name, t.Work, t.Duration, dt)
	}
	if t.CheckpointPeriod > 0 {
		// Checkpoints happen every CheckpointPeriod seconds of
		// execution; progress saved is the last boundary crossed.
		n := int(t.Work / t.CheckpointPeriod)
		cp := float64(n) * t.CheckpointPeriod
		if cp > t.Checkpointed {
			t.Checkpointed = cp
		}
	}
	if t.Work >= t.Duration-1e-9 {
		t.Work = t.Duration
		t.Checkpointed = t.Duration
		t.State = Done
		t.CompletedAt = now
		if now > t.Deadline {
			t.MissedDeadline = true
		}
		return true
	}
	if invariant.Enabled {
		invariant.Check(t.Checkpointed <= t.Work,
			"job %s: checkpoint %v ahead of work %v", t.Name, t.Checkpointed, t.Work)
	}
	return false
}

// Preempt suspends a running task. If removeFromMemory is true (the
// client is not keeping suspended tasks in RAM), execution since the
// last checkpoint is lost; the loss in seconds is returned.
func (t *Task) Preempt(removeFromMemory bool) (lost float64) {
	if t.State != Running {
		return 0
	}
	t.State = Preempted
	if removeFromMemory {
		lost = t.Work - t.Checkpointed
		if lost < 0 {
			lost = 0
		}
		t.Work = t.Checkpointed
	}
	return lost
}

// SinceCheckpoint returns the seconds of execution at risk (done but not
// yet checkpointed). The scheduler gives running tasks that have not
// reached a checkpoint precedence, to avoid wasting this work.
func (t *Task) SinceCheckpoint() float64 {
	d := t.Work - t.Checkpointed
	if d < 0 {
		return 0
	}
	return d
}

// Finished reports whether execution is complete.
func (t *Task) Finished() bool { return t.State == Done || t.State == Reported }

// Validate reports structural problems with the task.
func (t *Task) Validate() error {
	if err := t.Usage.Validate(); err != nil {
		return fmt.Errorf("task %s: %w", t.Name, err)
	}
	if t.Duration <= 0 {
		return fmt.Errorf("task %s: duration %v must be positive", t.Name, t.Duration)
	}
	if t.EstDuration <= 0 {
		return fmt.Errorf("task %s: estimated duration %v must be positive", t.Name, t.EstDuration)
	}
	if t.Deadline < t.ReceivedAt {
		return fmt.Errorf("task %s: deadline %v before receipt %v", t.Name, t.Deadline, t.ReceivedAt)
	}
	return nil
}
