package sched

// This file freezes the two-sort Enforce (insertion sort up to 32
// ranked tasks, slices.SortStableFunc above) as a reference fixture,
// the way internal/rrsim/golden_test.go freezes rr_sim. Enforce must
// produce the same run set in the same order, because the emulator's
// figures of merit are reproduced to the last bit.
// TestEnforceMatchesReference checks that on generated queues;
// BenchmarkEnforceReference keeps the old cost measurable next to
// BenchmarkEnforce.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bce/internal/host"
	"bce/internal/job"
)

// referenceLessRank is the frozen job-list order.
func referenceLessRank(a, b rank) bool {
	if a.class != b.class {
		return a.class < b.class
	}
	if a.key != b.key {
		return a.key < b.key
	}
	if a.running != b.running {
		return a.running
	}
	return a.receivedAt < b.receivedAt
}

func referenceCmpRank(a, b rank) int {
	if referenceLessRank(a, b) {
		return -1
	}
	if referenceLessRank(b, a) {
		return 1
	}
	return 0
}

// referenceEnforce is the frozen two-sort Enforce, with throwaway
// scratch.
func referenceEnforce(in Input) Decision {
	var ranks []rank
	for _, t := range in.Tasks {
		if t.Finished() || t.State == job.Downloading {
			continue
		}
		isGPU := t.Usage.IsGPU()
		if isGPU && !in.GPUAllowed {
			continue
		}
		r := rank{
			task:       t,
			running:    t.State == job.Running,
			receivedAt: t.ReceivedAt,
		}
		endangered := in.Policy.UsesDeadlines() && in.Endangered != nil && in.Endangered(t)
		switch {
		case t.State == job.Running && t.SinceCheckpoint() > 0 && !t.CheckpointedSinceStart():
			r.class = 0
		case isGPU && endangered:
			r.class = 1
		case isGPU:
			r.class = 2
		case endangered:
			r.class = 3
		default:
			r.class = 4
		}
		switch r.class {
		case 1, 3:
			if in.Policy == JSLLF {
				r.key = (t.Deadline - in.Now) - t.EstRemaining()
			} else {
				r.key = t.Deadline
			}
		default:
			r.key = -in.Prio(t.Project, t.Usage.Type())
		}
		ranks = append(ranks, r)
	}

	if len(ranks) <= 32 {
		for i := 1; i < len(ranks); i++ {
			for j := i; j > 0 && referenceLessRank(ranks[j], ranks[j-1]); j-- {
				ranks[j], ranks[j-1] = ranks[j-1], ranks[j]
			}
		}
	} else {
		slices.SortStableFunc(ranks, referenceCmpRank)
	}

	var remain [host.NumProcTypes]float64
	for t := host.ProcType(0); t < host.NumProcTypes; t++ {
		remain[t] = float64(in.Hardware.Proc[t].Count)
	}
	memRemain := in.MaxMemBytes
	if memRemain <= 0 {
		memRemain = in.Hardware.MemBytes
	}
	var run []*job.Task
	const eps = 1e-9
	for _, r := range ranks {
		u := r.task.Usage
		if u.MemBytes > memRemain+eps {
			continue
		}
		if u.IsGPU() {
			if u.GPUUsage > remain[u.GPUType]+eps {
				continue
			}
			remain[u.GPUType] -= u.GPUUsage
			remain[host.CPU] -= u.AvgCPUs
		} else {
			if remain[host.CPU] <= eps {
				continue
			}
			remain[host.CPU] -= u.AvgCPUs
		}
		memRemain -= u.MemBytes
		run = append(run, r.task)
		if saturated(remain, in.Hardware) {
			break
		}
	}
	return Decision{Run: run}
}

// clientQueue builds an n-task queue shaped like a job-heavy client's:
// tasks arrive in 14-task batches, each from one project, so the queue
// is in ReceivedAt order and each deadline is the receipt time plus
// the app's latency bound. The first few tasks are running (some not
// yet checkpointed), some are still downloading or done, and project
// 2's app runs on the GPU.
func clientQueue(rng *rand.Rand, n int) []*job.Task {
	latency := []float64{2200, 7100, 4000}
	tasks := make([]*job.Task, 0, n)
	recv := 0.0
	for len(tasks) < n {
		p := 0
		if rng.Intn(9) == 0 {
			p = 1 + rng.Intn(2)
		}
		recv += float64(rng.Intn(120))
		for k := 0; k < 14 && len(tasks) < n; k++ {
			t := &job.Task{
				Name:             fmt.Sprintf("t%d", len(tasks)),
				Project:          p,
				Usage:            job.Usage{AvgCPUs: 1, MemBytes: 50e6},
				Duration:         300 + float64(rng.Intn(600)),
				ReceivedAt:       recv,
				Deadline:         recv + latency[p],
				CheckpointPeriod: 60,
			}
			t.EstDuration = t.Duration
			if p == 2 {
				t.Usage = job.Usage{AvgCPUs: 0.2, GPUType: host.NvidiaGPU, GPUUsage: 1, MemBytes: 100e6}
			}
			tasks = append(tasks, t)
		}
	}
	for i, t := range tasks {
		switch {
		case i < 16:
			t.Start(recv)
			t.Work = float64(rng.Intn(90))
			t.Checkpointed = 60 * float64(int(t.Work)/60)
			if rng.Intn(2) == 0 {
				t.StartWork = t.Checkpointed // not checkpointed since start
			}
		case rng.Intn(50) == 0:
			t.State = job.Downloading
		case rng.Intn(50) == 0:
			t.State = job.Done
		}
	}
	return tasks
}

// shuffledQueue builds an n-task queue out of ReceivedAt order, with
// many ties in deadline, priority and ReceivedAt, so that the stable
// sort's tie order decides the permutation.
func shuffledQueue(rng *rand.Rand, n int) []*job.Task {
	tasks := make([]*job.Task, n)
	for i := range tasks {
		t := &job.Task{
			Name:             fmt.Sprintf("s%d", i),
			Project:          rng.Intn(4),
			Usage:            job.Usage{AvgCPUs: 1},
			Duration:         float64(100 * (1 + rng.Intn(5))),
			ReceivedAt:       float64(rng.Intn(20)),
			Deadline:         float64(1000 * (1 + rng.Intn(6))),
			CheckpointPeriod: 60,
		}
		t.EstDuration = t.Duration
		if rng.Intn(6) == 0 {
			t.Usage = job.Usage{AvgCPUs: 0.5, GPUType: host.NvidiaGPU, GPUUsage: 0.5}
		}
		if rng.Intn(8) == 0 {
			t.Start(0)
			t.Work = float64(rng.Intn(3) * 60)
			t.Checkpointed = t.Work
		}
		tasks[i] = t
	}
	return tasks
}

// TestEnforceMatchesReference requires Enforce to return the frozen
// reference's run set, element by element, on generated queues of
// 0–1,500 tasks: client-shaped and shuffled, under every policy, with
// GPUs allowed and not, on hosts small enough that the scan stops
// early and large enough that it reaches every task. One Enforcer
// serves every case, so the queues grow and shrink under one scratch
// slab.
func TestEnforceMatchesReference(t *testing.T) {
	var e Enforcer
	sizes := []int{0, 1, 2, 31, 33, 200, 1500, 40, 900, 3, 1500, 14}
	for seed, n := range sizes {
		rng := rand.New(rand.NewSource(int64(seed)))
		for _, shape := range []struct {
			name  string
			queue func(*rand.Rand, int) []*job.Task
		}{
			{"client", clientQueue},
			{"shuffled", shuffledQueue},
		} {
			tasks := shape.queue(rng, n)
			endangered := func(tk *job.Task) bool { return tk.Deadline < 1e4 || tk.Deadline-tk.ReceivedAt < 5000 }
			if shape.name == "shuffled" {
				endangered = func(tk *job.Task) bool { return tk.Project != 3 && int(tk.Deadline)%3000 != 0 }
			}
			prio := func(p int, ty host.ProcType) float64 { return -float64(p%2) - 0.5*float64(ty) }
			for _, pol := range []Policy{JSLocal, JSGlobal, JSWRR, JSLLF} {
				for _, gpu := range []bool{true, false} {
					for _, ncpu := range []int{16, 2000} {
						h := host.StdHost(ncpu, 1e9, 1+ncpu/100, 1e10)
						in := Input{
							Policy: pol, Hardware: &h.Hardware, Now: 500,
							Tasks: tasks, Endangered: endangered, Prio: prio,
							MaxMemBytes: 1e15, GPUAllowed: gpu,
						}
						want := referenceEnforce(in)
						got := e.Enforce(in)
						if !slices.Equal(got.Run, want.Run) {
							t.Fatalf("%s queue of %d, %v, GPU %v, %d CPUs: run set diverged\n got %v\nwant %v",
								shape.name, n, pol, gpu, ncpu, names(got), names(want))
						}
					}
				}
			}
		}
	}
}

// benchQueueInput is the client-shaped 1,500-task queue on a 16-CPU,
// 1-GPU host, nearly all of it deadline-endangered.
func benchQueueInput() Input {
	h := host.StdHost(16, 1e9, 1, 1e10)
	return Input{
		Policy: JSGlobal, Hardware: &h.Hardware, Now: 500,
		Tasks:      clientQueue(rand.New(rand.NewSource(1)), 1500),
		Endangered: func(tk *job.Task) bool { return tk.Project != 2 },
		Prio:       func(p int, _ host.ProcType) float64 { return -float64(p) },
		GPUAllowed: true,
	}
}

// BenchmarkEnforce measures one scheduling pass with a persistent
// Enforcer (the client's usage pattern) over the client-shaped queue.
func BenchmarkEnforce(b *testing.B) {
	in := benchQueueInput()
	var e Enforcer
	e.Enforce(in) // size the scratch outside the measurement
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Enforce(in)
	}
}

// BenchmarkEnforceReference measures the frozen two-sort code on the
// same queue, keeping the before/after comparison reproducible.
func BenchmarkEnforceReference(b *testing.B) {
	in := benchQueueInput()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		referenceEnforce(in)
	}
}
