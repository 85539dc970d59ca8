// Package metrics accumulates the paper's five figures of merit
// (§4.2), each scaled to [0,1] where 0 is good:
//
//   - Idle fraction: available peak-FLOPS capacity left unused.
//   - Wasted fraction: capacity spent on jobs that missed their
//     deadline (the server reissues those, so all their processing is
//     waste) plus execution lost to preemption without a checkpoint.
//   - Resource-share violation: RMS over projects of the gap between
//     the share a project was due and the fraction of delivered
//     processing it received.
//   - Monotony: how much the host ran a single project for long
//     periods, measured per time window as the largest single-project
//     fraction of delivered processing, rescaled so 0 = perfectly
//     mixed and 1 = one project at a time.
//   - RPCs per job: scheduler RPC count scaled as rpcs/(rpcs+jobs).
package metrics

import (
	"fmt"
	"math"
	"sort"

	"bce/internal/host"
	"bce/internal/job"
	"bce/internal/stats"
)

// DefaultWindow is the monotony window length in seconds.
const DefaultWindow = 3600

// Recorder accumulates events from one emulation run.
type Recorder struct {
	hw     *host.Hardware
	shares []float64
	window float64

	availCapacity float64 // peak-FLOPS-seconds while computing allowed
	used          []float64
	usedByType    [][host.NumProcTypes]float64
	taskUsage     map[*job.Task]float64
	taskLost      map[*job.Task]float64
	wasted        float64
	lost          float64

	rpcs      int
	completed int
	missed    int

	windows map[int][]float64 // window index -> per-project usage
}

// New creates a recorder for a run starting at time 0.
func New(hw *host.Hardware, shares []float64) *Recorder {
	return &Recorder{
		hw:         hw,
		shares:     shares,
		window:     DefaultWindow,
		used:       make([]float64, len(shares)),
		usedByType: make([][host.NumProcTypes]float64, len(shares)),
		taskUsage:  make(map[*job.Task]float64),
		taskLost:   make(map[*job.Task]float64),
		windows:    make(map[int][]float64),
	}
}

// OnAvailable records that computing was allowed during [t0, t1]; the
// host's full peak FLOPS counts as available capacity for that span.
func (r *Recorder) OnAvailable(t0, t1 float64) {
	if t1 > t0 {
		r.availCapacity += float64(r.hw.TotalPeakFLOPS() * (t1 - t0))
	}
}

// OnRun records that task tk executed during [t0, t1].
func (r *Recorder) OnRun(t0, t1 float64, tk *job.Task) {
	if t1 <= t0 {
		return
	}
	f := float64(tk.Usage.PeakFLOPS(r.hw) * (t1 - t0))
	if tk.Project >= 0 && tk.Project < len(r.used) {
		r.used[tk.Project] += f
		dt := t1 - t0
		r.usedByType[tk.Project][host.CPU] += float64(tk.Usage.AvgCPUs * r.hw.Proc[host.CPU].FLOPSPerInst * dt)
		if tk.Usage.IsGPU() {
			r.usedByType[tk.Project][tk.Usage.GPUType] += float64(tk.Usage.GPUUsage * r.hw.Proc[tk.Usage.GPUType].FLOPSPerInst * dt)
		}
	}
	r.taskUsage[tk] += f

	// Split across monotony windows.
	w0 := int(t0 / r.window)
	w1 := int(t1 / r.window)
	for w := w0; w <= w1; w++ {
		lo := float64(float64(w) * r.window)
		hi := lo + r.window
		ov := math.Min(t1, hi) - math.Max(t0, lo)
		if ov <= 0 {
			continue
		}
		wa := r.windows[w]
		if wa == nil {
			wa = make([]float64, len(r.shares))
			r.windows[w] = wa
		}
		if tk.Project >= 0 && tk.Project < len(wa) {
			wa[tk.Project] += float64(tk.Usage.PeakFLOPS(r.hw) * ov)
		}
	}
}

// OnLostWork records execution discarded because a task was preempted
// past its last checkpoint (or the application never checkpoints).
func (r *Recorder) OnLostWork(tk *job.Task, seconds float64) {
	if seconds > 0 {
		f := float64(seconds * tk.Usage.PeakFLOPS(r.hw))
		r.lost += f
		r.taskLost[tk] += f
	}
}

// OnComplete records a task finishing execution. All processing done
// for a deadline-missing task counts as wasted — except the portion
// already charged to lost work, which would otherwise be counted twice
// (once here via the task's usage tally, once via OnLostWork).
func (r *Recorder) OnComplete(tk *job.Task) {
	r.completed++
	if tk.MissedDeadline {
		r.missed++
		w := r.taskUsage[tk] - r.taskLost[tk]
		if w > 0 {
			r.wasted += w
		}
	}
	delete(r.taskUsage, tk)
	delete(r.taskLost, tk)
}

// OnRPC records one scheduler RPC.
func (r *Recorder) OnRPC() { r.rpcs++ }

// Metrics is the final report.
type Metrics struct {
	IdleFraction   float64
	WastedFraction float64
	ShareViolation float64
	Monotony       float64
	RPCsPerJob     float64

	// Raw counters for deeper analysis.
	RPCs           int
	CompletedJobs  int
	MissedJobs     int
	UsedFLOPSsec   float64
	WastedFLOPSsec float64
	LostFLOPSsec   float64
	AvailFLOPSsec  float64
	UsedByProject  []float64

	// UsedByProjectType splits each project's peak-FLOPS-seconds by
	// processor type (the paper's Figure 1 view of resource share).
	UsedByProjectType [][host.NumProcTypes]float64
}

// Values returns the five scaled figures of merit in paper order.
func (m Metrics) Values() [5]float64 {
	return [5]float64{m.IdleFraction, m.WastedFraction, m.ShareViolation, m.Monotony, m.RPCsPerJob}
}

// Names returns the metric names in the same order as Values.
func Names() [5]string {
	return [5]string{"idle", "wasted", "share_violation", "monotony", "rpcs_per_job"}
}

// String formats the metrics as a one-line summary.
func (m Metrics) String() string {
	return fmt.Sprintf("idle=%.3f wasted=%.3f viol=%.3f mono=%.3f rpc=%.3f (jobs=%d missed=%d rpcs=%d)",
		m.IdleFraction, m.WastedFraction, m.ShareViolation, m.Monotony, m.RPCsPerJob,
		m.CompletedJobs, m.MissedJobs, m.RPCs)
}

// Report computes the figures of merit at the end of a run.
func (r *Recorder) Report() Metrics {
	m := Metrics{
		RPCs:           r.rpcs,
		CompletedJobs:  r.completed,
		MissedJobs:     r.missed,
		WastedFLOPSsec: r.wasted + r.lost,
		LostFLOPSsec:   r.lost,
		AvailFLOPSsec:  r.availCapacity,
		UsedByProject:  append([]float64(nil), r.used...),
		UsedByProjectType: append([][host.NumProcTypes]float64(nil),
			r.usedByType...),
	}
	var total float64
	for _, u := range r.used {
		total += u
	}
	m.UsedFLOPSsec = total

	if r.availCapacity > 0 {
		m.IdleFraction = stats.Clamp01(1 - total/r.availCapacity)
		m.WastedFraction = stats.Clamp01((r.wasted + r.lost) / r.availCapacity)
	}

	// Share violation: RMS over projects of shareFrac − usedFrac.
	var shareSum float64
	for _, s := range r.shares {
		shareSum += s
	}
	if total > 0 && shareSum > 0 && len(r.shares) > 0 {
		var rms stats.RMS
		for p, s := range r.shares {
			rms.Add(s/shareSum - r.used[p]/total)
		}
		m.ShareViolation = stats.Clamp01(rms.Value())
	}

	// Monotony: mean over windows of the rescaled max project fraction.
	// Windows are visited in time order so the floating-point mean is
	// reproducible (map order would perturb the last few bits).
	n := len(r.shares)
	if n >= 2 {
		keys := make([]int, 0, len(r.windows))
		for k := range r.windows { //bce:unordered collecting keys to sort just below
			keys = append(keys, k)
		}
		sort.Ints(keys)
		var mono stats.Mean
		for _, k := range keys {
			wa := r.windows[k]
			var wtotal, wmax float64
			for _, u := range wa {
				wtotal += u
				if u > wmax {
					wmax = u
				}
			}
			if wtotal <= 0 {
				continue
			}
			frac := wmax / wtotal
			mono.Add((frac - 1/float64(n)) / (1 - 1/float64(n)))
		}
		if mono.N() > 0 {
			m.Monotony = stats.Clamp01(mono.Mean())
		}
	}

	if r.rpcs+r.completed > 0 {
		m.RPCsPerJob = float64(r.rpcs) / float64(r.rpcs+r.completed)
	}
	return m
}
