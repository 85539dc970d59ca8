// Package sched implements the BOINC client's job scheduling policy
// (paper §3.3) and its variants:
//
//   - JS-LOCAL: the baseline policy with local (per-type debt)
//     accounting,
//   - JS-GLOBAL: the baseline policy with global (REC) accounting,
//   - JS-WRR: JS-LOCAL without deadline awareness (pure weighted
//     round-robin ordering).
//
// The policy builds an ordered job list — running jobs that have not
// checkpointed first, then deadline-endangered jobs (earliest deadline
// first), GPU jobs before CPU jobs, then priority order — and scans it,
// running jobs until processors are fully committed, skipping jobs that
// would exceed the memory limit.
package sched

import (
	"fmt"
	"math"

	"bce/internal/host"
	"bce/internal/invariant"
	"bce/internal/job"
)

// Policy selects a job-scheduling policy variant.
type Policy int

const (
	// JSLocal is the baseline policy with local accounting.
	JSLocal Policy = iota
	// JSGlobal is the baseline policy with global accounting.
	JSGlobal
	// JSWRR ignores deadlines (weighted round-robin only).
	JSWRR
	// JSLLF orders endangered jobs by least laxity instead of earliest
	// deadline — the paper's §6.2 note that EDF is optimal only for
	// uniprocessors and that other heuristics can beat it on
	// multiprocessors. Uses global accounting.
	JSLLF
)

// String returns the paper's name for the policy.
func (p Policy) String() string {
	switch p {
	case JSLocal:
		return "JS-LOCAL"
	case JSGlobal:
		return "JS-GLOBAL"
	case JSWRR:
		return "JS-WRR"
	case JSLLF:
		return "JS-LLF"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// UsesDeadlines reports whether the variant promotes deadline-
// endangered jobs (true for all but JS-WRR).
func (p Policy) UsesDeadlines() bool { return p != JSWRR }

// Input is everything one scheduling pass needs.
type Input struct {
	Policy   Policy
	Hardware *host.Hardware

	// Now is the current time, used by laxity-based ordering.
	Now float64

	// Tasks is the client's queue: every unfinished task, whatever its
	// state.
	Tasks []*job.Task

	// Endangered reports the round-robin simulation's deadline verdict
	// for a task (ignored by JS-WRR).
	Endangered func(*job.Task) bool

	// Prio is PRIO_sched(P, T) from the accounting scheme.
	Prio func(p int, t host.ProcType) float64

	// MaxMemBytes caps the summed working sets of scheduled jobs.
	MaxMemBytes float64

	// GPUAllowed gates GPU jobs (the "GPU computing allowed"
	// availability channel / preference).
	GPUAllowed bool
}

// Decision is the outcome of a scheduling pass: the exact set of tasks
// that should be running. A Decision returned by an Enforcer aliases
// the Enforcer's scratch storage and is valid until its next Enforce
// call.
type Decision struct {
	Run []*job.Task
}

// Contains reports whether the decision schedules t. Linear scan: Run
// is bounded by the host's processor counts, so this beats building a
// set for realistic hardware.
func (d Decision) Contains(t *job.Task) bool {
	for _, r := range d.Run {
		if r == t {
			return true
		}
	}
	return false
}

// rank orders the job list. Lower rank runs earlier in the scan.
type rank struct {
	task       *job.Task
	class      int     // 0: running un-checkpointed, 1: endangered GPU, 2: GPU, 3: endangered CPU, 4: CPU
	key        float64 // within a class, ascending: deadline (or laxity) for endangered classes, negated accounting priority otherwise
	running    bool    // tie-break: prefer already-running (fewer preemptions)
	receivedAt float64 // final tie-break: FIFO
}

// lessRank is the job-list order. Negating the priority into key turns
// its descending order into key's ascending one, which is equivalent
// for all finite floats. Without NaN keys lessRank is a strict weak
// order, so every stable sort by it yields the same permutation, and
// the sort implementation can change without changing an emulation
// bit.
func lessRank(a, b rank) bool {
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

// Enforcer runs scheduling passes with reusable scratch storage, so a
// steady-state pass allocates nothing. The zero value is ready to use.
// Not safe for concurrent use; each emulated client owns one.
type Enforcer struct {
	// ranks is one slab of twice the queue length: the ranked list
	// fills the front, and the merge sort uses the space after it as
	// its buffer.
	ranks []rank
	run   []*job.Task
}

// Enforce computes the set of tasks to run (paper §3.3's "build an
// ordered job list, then scan it"). The returned Decision aliases the
// Enforcer's scratch and is valid until the next call.
//
//bce:hotpath
//bce:scratch
func (e *Enforcer) Enforce(in Input) Decision {
	if cap(e.ranks) < 2*len(in.Tasks) {
		e.ranks = make([]rank, 0, max(2*len(in.Tasks), 2*cap(e.ranks))) //bce:allocok amortized grow of reusable scratch: capacity at least doubles, so a growing queue reallocates O(log n) times
	}
	ranks := e.ranks[:0]
	for _, t := range in.Tasks {
		if t.Finished() || t.State == job.Downloading {
			continue // not runnable until its input files arrive
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
			// "Running jobs that have not checkpointed yet have
			// precedence over all others." Once a job checkpoints
			// during its run session it becomes preemptable (at most
			// one checkpoint period of work is at risk).
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
		case 1, 3: // endangered: earliest deadline (or least laxity) first
			if in.Policy == JSLLF {
				// Laxity: time to deadline minus estimated remaining
				// execution.
				r.key = (t.Deadline - in.Now) - t.EstRemaining()
			} else {
				r.key = t.Deadline
			}
		default:
			r.key = -in.Prio(t.Project, t.Usage.Type())
		}
		if invariant.Enabled {
			// A NaN key breaks lessRank's strict weak order, and with
			// it the sort's uniquely determined permutation.
			invariant.Check(!math.IsNaN(r.key),
				"sched: task %s has a NaN rank key in class %d under %v", t.Name, r.class, in.Policy)
		}
		ranks = append(ranks, r)
	}
	e.ranks = ranks //bce:retainok ranks alias in.Tasks only until the next Enforce; the Decision contract documents this
	ranks = sortRanks(ranks, ranks[len(ranks):2*len(ranks)])

	// Scan: commit device instances and memory in rank order; stop when
	// everything is saturated.
	var remain [host.NumProcTypes]float64
	for t := host.ProcType(0); t < host.NumProcTypes; t++ {
		remain[t] = float64(in.Hardware.Proc[t].Count)
	}
	memRemain := in.MaxMemBytes
	if memRemain <= 0 {
		memRemain = in.Hardware.MemBytes
	}

	run := e.run[:0]
	const eps = 1e-9
	for _, r := range ranks {
		u := r.task.Usage
		if u.MemBytes > memRemain+eps {
			continue // "jobs are skipped if total memory usage would exceed the limit"
		}
		if u.IsGPU() {
			if u.GPUUsage > remain[u.GPUType]+eps {
				continue // "... or if GPUs cannot be allocated"
			}
			// GPU jobs may oversubscribe the CPU slightly; their CPU
			// demand is typically fractional.
			remain[u.GPUType] -= u.GPUUsage
			remain[host.CPU] -= u.AvgCPUs
		} else {
			if remain[host.CPU] <= eps {
				continue
			}
			// A CPU job runs when any CPU capacity remains; its full
			// demand is committed (slight oversubscription allowed at
			// the margin, as in BOINC).
			remain[host.CPU] -= u.AvgCPUs
		}
		memRemain -= u.MemBytes
		run = append(run, r.task)

		if saturated(remain, in.Hardware) {
			break
		}
	}
	e.run = run //bce:retainok the Decision deliberately aliases scratch holding caller tasks until the next Enforce
	return Decision{Run: run}
}

// sortRanks stable-sorts r by lessRank with a natural merge sort and
// returns the sorted list, which lies either in r or in buf (the same
// length as r). Each pass merges adjacent pairs of maximal
// non-descending runs, so a pass halves the run count and the cost is
// O(n log runs). The client's queue is in arrival order and most keys
// are deadlines (receipt time plus the app's latency bound), so the
// ranked list holds only a handful of runs, and a list that is one run
// already is returned without a copy.
func sortRanks(r, buf []rank) []rank {
	if len(r) == 0 {
		return r
	}
	src, dst := r, buf
	for {
		for lo := 0; lo < len(src); {
			mid := runEnd(src, lo)
			if mid == len(src) {
				if lo == 0 {
					return src
				}
				copy(dst[lo:], src[lo:]) // an odd run out: carry it over
				break
			}
			hi := runEnd(src, mid)
			mergeRuns(dst[lo:hi], src[lo:mid], src[mid:hi])
			if lo == 0 && hi == len(src) {
				return dst // this pass held only two runs, now merged
			}
			lo = hi
		}
		src, dst = dst, src
	}
}

// runEnd returns the end of the maximal non-descending run of r that
// starts at lo < len(r).
func runEnd(r []rank, lo int) int {
	i := lo + 1
	for i < len(r) && !lessRank(r[i], r[i-1]) {
		i++
	}
	return i
}

// mergeRuns merges the sorted runs a and b into dst, which holds
// exactly both. Ties take a's element, which keeps the merge stable
// because a precedes b in the list.
func mergeRuns(dst, a, b []rank) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if lessRank(b[j], a[i]) {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// Enforce runs one scheduling pass with throwaway scratch. Hot-path
// callers should keep an Enforcer and use its method.
func Enforce(in Input) Decision {
	var e Enforcer
	return e.Enforce(in)
}

func saturated(remain [host.NumProcTypes]float64, hw *host.Hardware) bool {
	for t := host.ProcType(0); t < host.NumProcTypes; t++ {
		if hw.Proc[t].Count > 0 && remain[t] > 1e-9 {
			return false
		}
	}
	return true
}
