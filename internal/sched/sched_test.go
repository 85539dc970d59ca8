package sched

import (
	"testing"
	"unsafe"

	"bce/internal/host"
	"bce/internal/job"
)

func hwCPU(n int) *host.Hardware {
	h := host.StdHost(n, 1e9, 0, 0)
	return &h.Hardware
}

func hwMixed(ncpu, ngpu int) *host.Hardware {
	h := host.StdHost(ncpu, 1e9, ngpu, 10e9)
	return &h.Hardware
}

func cpuTask(p int, name string) *job.Task {
	return &job.Task{
		Name: name, Project: p,
		Usage:    job.Usage{AvgCPUs: 1},
		Duration: 1000, EstDuration: 1000, Deadline: 1e9,
		CheckpointPeriod: 60,
	}
}

func gpuTask(p int, name string) *job.Task {
	t := cpuTask(p, name)
	t.Usage = job.Usage{AvgCPUs: 0.2, GPUType: host.NvidiaGPU, GPUUsage: 1}
	return t
}

func noEndangered(*job.Task) bool         { return false }
func flatPrio(int, host.ProcType) float64 { return 0 }

func names(d Decision) []string {
	var out []string
	for _, t := range d.Run {
		out = append(out, t.Name)
	}
	return out
}

func has(d Decision, name string) bool {
	for _, t := range d.Run {
		if t.Name == name {
			return true
		}
	}
	return false
}

func TestPolicyStrings(t *testing.T) {
	if JSLocal.String() != "JS-LOCAL" || JSGlobal.String() != "JS-GLOBAL" || JSWRR.String() != "JS-WRR" {
		t.Fatal("policy names wrong")
	}
	if !JSLocal.UsesDeadlines() || !JSGlobal.UsesDeadlines() || JSWRR.UsesDeadlines() {
		t.Fatal("UsesDeadlines classification wrong")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Fatal("unknown policy formatting")
	}
}

func TestRunsUpToCPUCount(t *testing.T) {
	tasks := []*job.Task{cpuTask(0, "a"), cpuTask(0, "b"), cpuTask(0, "c")}
	d := Enforce(Input{
		Policy: JSLocal, Hardware: hwCPU(2), Tasks: tasks,
		Endangered: noEndangered, Prio: flatPrio, GPUAllowed: true,
	})
	if len(d.Run) != 2 {
		t.Fatalf("ran %v, want 2 tasks on 2 CPUs", names(d))
	}
}

func TestPriorityOrdersProjects(t *testing.T) {
	tasks := []*job.Task{cpuTask(0, "p0"), cpuTask(1, "p1")}
	prio := func(p int, _ host.ProcType) float64 { return float64(p) } // p1 higher
	d := Enforce(Input{
		Policy: JSLocal, Hardware: hwCPU(1), Tasks: tasks,
		Endangered: noEndangered, Prio: prio, GPUAllowed: true,
	})
	if len(d.Run) != 1 || d.Run[0].Name != "p1" {
		t.Fatalf("ran %v, want p1 (higher priority)", names(d))
	}
}

func TestEndangeredPrecedence(t *testing.T) {
	low := cpuTask(0, "low")
	low.Deadline = 5000
	high := cpuTask(1, "high")
	d := Enforce(Input{
		Policy: JSLocal, Hardware: hwCPU(1),
		Tasks:      []*job.Task{high, low},
		Endangered: func(tk *job.Task) bool { return tk.Name == "low" },
		Prio:       func(p int, _ host.ProcType) float64 { return float64(p) }, // high has higher prio
		GPUAllowed: true,
	})
	if len(d.Run) != 1 || d.Run[0].Name != "low" {
		t.Fatalf("ran %v, want the endangered job despite lower priority", names(d))
	}
}

func TestWRRIgnoresDeadlines(t *testing.T) {
	low := cpuTask(0, "low")
	high := cpuTask(1, "high")
	d := Enforce(Input{
		Policy: JSWRR, Hardware: hwCPU(1),
		Tasks:      []*job.Task{high, low},
		Endangered: func(tk *job.Task) bool { return tk.Name == "low" },
		Prio:       func(p int, _ host.ProcType) float64 { return float64(p) },
		GPUAllowed: true,
	})
	if len(d.Run) != 1 || d.Run[0].Name != "high" {
		t.Fatalf("JS-WRR ran %v, want priority order only", names(d))
	}
}

func TestEDFWithinEndangered(t *testing.T) {
	a := cpuTask(0, "later")
	a.Deadline = 2000
	b := cpuTask(1, "sooner")
	b.Deadline = 1000
	d := Enforce(Input{
		Policy: JSGlobal, Hardware: hwCPU(1),
		Tasks:      []*job.Task{a, b},
		Endangered: func(*job.Task) bool { return true },
		Prio:       flatPrio, GPUAllowed: true,
	})
	if d.Run[0].Name != "sooner" {
		t.Fatalf("ran %v, want earliest deadline first", names(d))
	}
}

func TestGPUJobsPrecedeCPUJobs(t *testing.T) {
	// 1 CPU. The GPU job's 0.2 CPUs are committed first, leaving the
	// CPU job to run too; both should be scheduled, GPU first.
	g := gpuTask(0, "gpu")
	c := cpuTask(1, "cpu")
	d := Enforce(Input{
		Policy: JSLocal, Hardware: hwMixed(1, 1),
		Tasks:      []*job.Task{c, g},
		Endangered: noEndangered, Prio: flatPrio, GPUAllowed: true,
	})
	if len(d.Run) != 2 || d.Run[0].Name != "gpu" {
		t.Fatalf("ran %v, want GPU job first then CPU job", names(d))
	}
}

func TestGPUNotAllowed(t *testing.T) {
	g := gpuTask(0, "gpu")
	d := Enforce(Input{
		Policy: JSLocal, Hardware: hwMixed(1, 1),
		Tasks:      []*job.Task{g},
		Endangered: noEndangered, Prio: flatPrio, GPUAllowed: false,
	})
	if len(d.Run) != 0 {
		t.Fatal("GPU job scheduled while GPU computing disallowed")
	}
}

func TestGPUExhaustion(t *testing.T) {
	g1, g2 := gpuTask(0, "g1"), gpuTask(1, "g2")
	d := Enforce(Input{
		Policy: JSLocal, Hardware: hwMixed(4, 1),
		Tasks:      []*job.Task{g1, g2},
		Endangered: noEndangered, Prio: flatPrio, GPUAllowed: true,
	})
	count := 0
	for _, tk := range d.Run {
		if tk.Usage.IsGPU() {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("%d GPU jobs on 1 GPU, want 1", count)
	}
}

func TestFractionalGPUSharing(t *testing.T) {
	g1, g2 := gpuTask(0, "g1"), gpuTask(1, "g2")
	g1.Usage.GPUUsage, g2.Usage.GPUUsage = 0.5, 0.5
	d := Enforce(Input{
		Policy: JSLocal, Hardware: hwMixed(4, 1),
		Tasks:      []*job.Task{g1, g2},
		Endangered: noEndangered, Prio: flatPrio, GPUAllowed: true,
	})
	if len(d.Run) != 2 {
		t.Fatalf("ran %v, want both half-GPU jobs", names(d))
	}
}

func TestMemoryLimitSkips(t *testing.T) {
	big := cpuTask(0, "big")
	big.Usage.MemBytes = 6e9
	small := cpuTask(1, "small")
	small.Usage.MemBytes = 1e9
	d := Enforce(Input{
		Policy: JSLocal, Hardware: hwCPU(2),
		Tasks:       []*job.Task{big, small},
		Endangered:  noEndangered,
		Prio:        func(p int, _ host.ProcType) float64 { return float64(-p) }, // big first
		MaxMemBytes: 5e9,
		GPUAllowed:  true,
	})
	// big doesn't fit in 5 GB; small does.
	if has(d, "big") || !has(d, "small") {
		t.Fatalf("ran %v, want memory-limited skip of big", names(d))
	}
}

func TestRunningUncheckpointedFirst(t *testing.T) {
	running := cpuTask(0, "running")
	running.Start(0)
	running.Advance(30, 30) // 30 s of un-checkpointed work (period 60)
	fresh := cpuTask(1, "fresh")
	d := Enforce(Input{
		Policy: JSLocal, Hardware: hwCPU(1),
		Tasks:      []*job.Task{fresh, running},
		Endangered: func(tk *job.Task) bool { return tk == fresh }, // even endangered loses
		Prio:       func(p int, _ host.ProcType) float64 { return float64(p) },
		GPUAllowed: true,
	})
	if d.Run[0].Name != "running" {
		t.Fatalf("ran %v, want un-checkpointed running job protected", names(d))
	}
}

func TestFinishedTasksIgnored(t *testing.T) {
	done := cpuTask(0, "done")
	done.State = job.Done
	d := Enforce(Input{
		Policy: JSLocal, Hardware: hwCPU(1),
		Tasks:      []*job.Task{done},
		Endangered: noEndangered, Prio: flatPrio, GPUAllowed: true,
	})
	if len(d.Run) != 0 {
		t.Fatal("finished task scheduled")
	}
}

func TestEmptyQueue(t *testing.T) {
	d := Enforce(Input{
		Policy: JSLocal, Hardware: hwCPU(4),
		Endangered: noEndangered, Prio: flatPrio, GPUAllowed: true,
	})
	if len(d.Run) != 0 {
		t.Fatal("empty queue produced a run set")
	}
}

func TestTieBreakPrefersRunning(t *testing.T) {
	// Same project, same priority: the already-running (checkpointed)
	// task should be kept to avoid churn.
	r := cpuTask(0, "already")
	r.Start(0)
	r.Advance(60, 60) // exactly at checkpoint: SinceCheckpoint == 0
	q := cpuTask(0, "queued")
	d := Enforce(Input{
		Policy: JSLocal, Hardware: hwCPU(1),
		Tasks:      []*job.Task{q, r},
		Endangered: noEndangered, Prio: flatPrio, GPUAllowed: true,
	})
	if d.Run[0].Name != "already" {
		t.Fatalf("ran %v, want running task preferred on ties", names(d))
	}
}

func TestMultiCPUJobCommitsAll(t *testing.T) {
	wide := cpuTask(0, "wide")
	wide.Usage.AvgCPUs = 4
	extra := cpuTask(1, "extra")
	d := Enforce(Input{
		Policy: JSLocal, Hardware: hwCPU(4),
		Tasks:      []*job.Task{wide, extra},
		Endangered: noEndangered,
		Prio:       func(p int, _ host.ProcType) float64 { return float64(-p) },
		GPUAllowed: true,
	})
	if !has(d, "wide") || has(d, "extra") {
		t.Fatalf("ran %v, want the 4-CPU job to fill the host", names(d))
	}
}

func TestLLFOrdersByLaxity(t *testing.T) {
	// Job "tight" has less laxity (deadline 2000, 1500 s remaining →
	// laxity 500) than "soon" (deadline 1000, 100 s remaining →
	// laxity 900), so LLF runs "tight" first even though "soon" has
	// the earlier deadline.
	tight := cpuTask(0, "tight")
	tight.Duration, tight.EstDuration, tight.Deadline = 1500, 1500, 2000
	soon := cpuTask(1, "soon")
	soon.Duration, soon.EstDuration, soon.Deadline = 100, 100, 1000
	d := Enforce(Input{
		Policy: JSLLF, Now: 0, Hardware: hwCPU(1),
		Tasks:      []*job.Task{soon, tight},
		Endangered: func(*job.Task) bool { return true },
		Prio:       flatPrio, GPUAllowed: true,
	})
	if d.Run[0].Name != "tight" {
		t.Fatalf("ran %v, want least-laxity job first", names(d))
	}
	// EDF would pick the other one.
	d = Enforce(Input{
		Policy: JSLocal, Now: 0, Hardware: hwCPU(1),
		Tasks:      []*job.Task{soon, tight},
		Endangered: func(*job.Task) bool { return true },
		Prio:       flatPrio, GPUAllowed: true,
	})
	if d.Run[0].Name != "soon" {
		t.Fatalf("EDF ran %v, want earliest deadline first", names(d))
	}
}

func TestLLFName(t *testing.T) {
	if JSLLF.String() != "JS-LLF" || !JSLLF.UsesDeadlines() {
		t.Fatal("JS-LLF misdescribed")
	}
}

// The rank slab's //bce:allocok reason is "amortized grow": a queue
// that grows one task per pass must reallocate it O(log n) times
// (⌈log₂ 2000⌉ + 2 here), not at every new maximum.
func TestRankSlabGrowsGeometrically(t *testing.T) {
	const queue, maxGrowths = 2000, 13
	var e Enforcer
	in := Input{
		Policy: JSLocal, Hardware: hwCPU(4),
		Endangered: noEndangered, Prio: flatPrio, GPUAllowed: true,
	}
	growths, last := 0, cap(e.ranks)
	for i := 0; i < queue; i++ {
		in.Tasks = append(in.Tasks, cpuTask(i%3, "t"))
		e.Enforce(in)
		if c := cap(e.ranks); c != last {
			growths, last = growths+1, c
		}
	}
	if growths > maxGrowths {
		t.Fatalf("rank slab reallocated %d times while the queue grew to %d tasks, want at most %d", growths, queue, maxGrowths)
	}
}

// rank packs its two small fields into one word: on a 64-bit platform
// the slab every client grows holds 32-byte ranks, not 40.
func TestRankPacked(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit platforms")
	}
	if s := unsafe.Sizeof(rank{}); s != 32 {
		t.Fatalf("rank is %d bytes, want 32", s)
	}
}
