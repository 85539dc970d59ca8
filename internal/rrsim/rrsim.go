// Package rrsim implements the BOINC client's round-robin simulation
// (paper §3.2): a continuous approximation of weighted round-robin
// execution of the current workload, used to predict which jobs will
// miss their deadlines (deadline-endangered), how long each processor
// type stays saturated (SAT), and how many idle instance-seconds fall
// within the work-buffer horizon (SHORTFALL).
//
// Instead of modelling individual timeslices, each project's jobs drain
// continuously at the rate of the project's share of each processor
// type, with unused allocation redistributed so devices stay saturated
// whenever demand exists.
//
// The simulation is re-executed at every scheduling point, so it is the
// emulator's hot path: a Simulator owns all working state and reuses it
// across calls, making a steady-state Run allocate only its Result.
package rrsim

import (
	"math"

	"bce/internal/host"
	"bce/internal/invariant"
	"bce/internal/job"
)

// Job is one simulated queue entry. EstRemaining and deadlines come from
// the client's estimates; results are written back into the struct.
type Job struct {
	Task *job.Task // identity only; not mutated

	// Inputs (the client copies them from the task before each pass).
	Project   int
	Type      host.ProcType
	Instances float64 // instances of Type occupied
	Remaining float64 // estimated execution seconds left
	Deadline  float64

	// Outputs.
	ProjectedFinish float64 // absolute time; +Inf if it never finishes
	Endangered      bool    // projected to miss its deadline
}

// Input parameterises one simulation run.
type Input struct {
	Now      float64
	Hardware *host.Hardware
	Shares   []float64 // resource share per project index

	// OnFrac discounts execution rates by the host's long-run
	// availability per processor type (1 = always available).
	OnFrac [host.NumProcTypes]float64

	// HorizonMin and HorizonMax are the work-buffer windows (seconds
	// from Now) over which shortfall is integrated; they correspond to
	// the min_queue and max_queue preferences.
	HorizonMin float64
	HorizonMax float64

	// DeadlineMargin is subtracted from deadlines when classifying
	// endangered jobs (a safety margin; 0 reproduces the bare policy).
	DeadlineMargin float64

	// Trace, when true, records the busy-instances step function for
	// timeline visualization (paper Figure 2).
	Trace bool

	Jobs []*Job
}

// TraceStep is one segment of the busy-instances step function.
type TraceStep struct {
	Start, End float64
	Busy       [host.NumProcTypes]float64
}

// Result is the simulation outcome.
type Result struct {
	// ShortfallMin/ShortfallMax are idle instance-seconds within the
	// min/max horizons, per processor type.
	ShortfallMin [host.NumProcTypes]float64
	ShortfallMax [host.NumProcTypes]float64

	// Saturated is SAT(T): how long all instances of T stay busy.
	Saturated [host.NumProcTypes]float64

	// IdleNow is the number of instances of T idle at Now.
	IdleNow [host.NumProcTypes]float64

	// NumEndangered counts deadline-endangered jobs.
	NumEndangered int

	Trace []TraceStep
}

const maxSteps = 100000

// Simulator executes round-robin simulations, owning all scratch state
// so repeated Runs do not allocate. A Simulator is not safe for
// concurrent use; each goroutine (each emulated client) keeps its own.
type Simulator struct {
	rem    []float64 // per-job remaining instance-seconds
	alloc  []float64 // allocate() output
	active []bool    // allocate() progressive-filling state

	// groups[t][p] holds the indices of unfinished type-t jobs of
	// project p in arrival order, so the seating loop visits exactly
	// the jobs it concerns instead of scanning the whole queue once
	// per project. Jobs leave their group as they complete.
	groups [host.NumProcTypes][]group

	// demand[t][p] caches group (t,p)'s unfinished instance demand.
	// Demand only changes when a member job finishes, so instead of
	// rescanning every group every step, finishes mark their group in
	// dirty and only those are recomputed before the next step.
	//
	// exact[t][p] marks groups whose every member has an integral
	// Instances value with an integral total below 2^52: for those,
	// float64 addition and subtraction are exact, so ANY summation
	// order yields the same bits and a finish can simply subtract the
	// job's demand instead of rescanning the group. Non-integral
	// groups keep the ordered rescan, which reproduces the reference
	// summation order bit for bit.
	demand [host.NumProcTypes][]float64
	exact  [host.NumProcTypes][]bool
	dirty  []groupKey

	// seats[t] is type t's current seating: the jobs granted capacity
	// and their drain rates. Rates depend only on the type's group
	// membership and allocation — not on remaining work — so the list
	// stays valid until a type-t group goes dirty and is rebuilt then.
	seats [host.NumProcTypes][]seat
}

// group is one (type, project) job group: its members are
// buf[head:], in arrival order. A finishing member of an exact group
// leaves by shifting the members ahead of it one slot right and
// advancing head. Seating fills a group from the front, so a finishing
// job sits among the first few members and the shift is short, where
// closing the gap from the tail would move nearly the whole group.
type group struct {
	buf  []int32
	head int
}

// members returns the group's current members in arrival order.
func (g *group) members() []int32 { return g.buf[g.head:] }

// groupKey names one (type, project) job group.
type groupKey struct {
	t host.ProcType
	p int32
}

// seat is one job's capacity grant for the current step.
type seat struct {
	job  int32
	rate float64 // instance-seconds drained per second (> 0)
}

// New returns an empty Simulator; its buffers grow to fit the largest
// workload it has seen.
func New() *Simulator { return &Simulator{} }

// Run executes the round-robin simulation with a throwaway Simulator.
// Callers on a hot path should keep a Simulator and use its Run method
// to avoid re-allocating working state every call.
func Run(in Input) *Result { return New().Run(in) }

// growFloats returns s resized to n entries, reusing its backing array
// when possible and otherwise at least doubling its capacity, so a
// buffer that follows a growing queue is reallocated O(log n) times.
// Contents are unspecified.
//
//bce:hotpath
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n, max(n, 2*cap(s))) //bce:allocok amortized grow of a reusable scratch buffer: capacity at least doubles, so a growing workload reallocates O(log n) times
	}
	return s[:n]
}

// Run executes the round-robin simulation, allocating a fresh Result.
//
//bce:hotpath
func (s *Simulator) Run(in Input) *Result {
	res := &Result{} //bce:allocok one Result per call by design; steady-state callers reuse one via RunInto
	s.RunInto(res, in)
	return res
}

// RunInto executes the round-robin simulation, resetting res and
// writing the outcome into it. Hot-path callers keep one Result and
// reuse it across runs so a steady-state Run allocates nothing at all.
//
//bce:hotpath
//bce:scratch
func (s *Simulator) RunInto(res *Result, in Input) {
	*res = Result{}
	for t := host.ProcType(0); t < host.NumProcTypes; t++ {
		if in.OnFrac[t] == 0 {
			in.OnFrac[t] = 1
		}
	}
	if in.HorizonMax < in.HorizonMin {
		in.HorizonMax = in.HorizonMin
	}

	nproj := len(in.Shares)
	// Remaining work per job in instance-seconds.
	s.rem = growFloats(s.rem, len(in.Jobs))
	rem := s.rem
	unfinished := 0
	for i, j := range in.Jobs {
		rem[i] = j.Remaining * j.Instances
		if rem[i] > 0 {
			unfinished++
		} else {
			// Already finished at simulation start: it cannot miss its
			// deadline, however late Now is, so it is never endangered.
			j.ProjectedFinish = in.Now
			j.Endangered = false
		}
	}

	// Index unfinished jobs by (type, project). Jobs whose project has
	// no share entry get no group: they can never run and are
	// classified endangered at the end, like any other job with no
	// rate. Already-finished jobs are left out: they contribute no
	// demand and the seating loop would skip them anyway.
	for t := range s.groups {
		for len(s.groups[t]) < nproj {
			s.groups[t] = append(s.groups[t], group{})
		}
		for p := 0; p < nproj; p++ {
			s.groups[t][p] = group{buf: s.groups[t][p].buf[:0]}
		}
	}
	// Demand accumulates during the same scan, job by job in arrival
	// order — the order the dirty-group sweep uses, so the two always
	// agree bit for bit. Groups that stay integral are marked exact:
	// their sums carry no rounding, so later finishes can maintain
	// demand by subtraction (see the exact field).
	for t := range s.demand {
		s.demand[t] = growFloats(s.demand[t], nproj)
		d := s.demand[t]
		for p := range d {
			d[p] = 0
		}
		if cap(s.exact[t]) < nproj {
			//bce:allocok amortized grow of a reusable scratch buffer, stops once sized to the workload
			s.exact[t] = make([]bool, nproj)
		}
		s.exact[t] = s.exact[t][:nproj]
		for p := range s.exact[t] {
			s.exact[t][p] = true
		}
	}
	for i, j := range in.Jobs {
		if rem[i] > 0 && j.Project >= 0 && j.Project < nproj &&
			j.Type >= 0 && j.Type < host.NumProcTypes {
			g := &s.groups[j.Type][j.Project]
			g.buf = append(g.buf, int32(i))
			s.demand[j.Type][j.Project] += j.Instances
			if s.demand[j.Type][j.Project] >= 1<<52 ||
				(j.Instances != 1 && j.Instances != math.Trunc(j.Instances)) {
				s.exact[j.Type][j.Project] = false
			}
		}
	}

	satOpen := [host.NumProcTypes]bool{}
	firstStep := true
	elapsed := 0.0 // sim time since Now

	s.dirty = s.dirty[:0]

	// busy and the per-type seat lists persist across steps; a type is
	// re-allocated and re-seated only when one of its groups changes.
	var busy [host.NumProcTypes]float64
	var seatsStale [host.NumProcTypes]bool
	for t := range seatsStale {
		seatsStale[t] = true
		s.seats[t] = s.seats[t][:0]
	}

	for step := 0; step < maxSteps; step++ {
		// Refresh dirty groups — those with a finish since the last
		// step. Exact groups were already compacted and their demand
		// adjusted by subtraction at finish time (bit-identical: their
		// arithmetic carries no rounding), so they only invalidate the
		// seating. The rest get one ordered sweep each: drop finished
		// members (preserving the arrival order of the rest) and
		// re-sum the survivors' demand. The sum visits unfinished jobs
		// in arrival order, exactly the scan the per-step recompute
		// used before demands were cached, so every bit of the float64
		// matches.
		for _, k := range s.dirty {
			if !s.exact[k.t][k.p] {
				g := &s.groups[k.t][k.p]
				kept := g.buf[:0]
				var d float64
				for _, i := range g.members() {
					if rem[i] > 0 {
						d += in.Jobs[i].Instances
						kept = append(kept, i)
					}
				}
				g.buf, g.head = kept, 0
				s.demand[k.t][k.p] = d
			}
			seatsStale[k.t] = true
		}
		s.dirty = s.dirty[:0]

		// Re-allocate stale types over the cached demands and seat
		// their jobs. Seat rates depend only on group membership and
		// allocation (never on remaining work), so an untouched type's
		// seating carries over from the previous step unchanged.
		for t := host.ProcType(0); t < host.NumProcTypes; t++ {
			n := float64(in.Hardware.Proc[t].Count)
			if n == 0 || !seatsStale[t] {
				continue
			}
			seatsStale[t] = false
			groups := s.groups[t]
			alloc := s.allocate(s.demand[t], in.Shares, n)
			busy[t] = 0
			seats := s.seats[t][:0]
			for p, a := range alloc {
				busy[t] += a
				if a <= 0 {
					continue
				}
				// Seat the project's jobs into its allocated instances
				// in arrival order; jobs beyond the allocation wait.
				// Seating deliberately ignores which job happens to be
				// running right now: a state-dependent seating makes
				// the endangered classification self-invalidating (the
				// job the scheduler promotes immediately looks safe and
				// is demoted again), causing preemption thrash.
				for _, i := range groups[p].members() {
					if a <= 1e-12 {
						break
					}
					if rem[i] <= 0 {
						continue
					}
					// min(Instances, a) by compare: both are strictly
					// positive here, where math.Min is exact anyway.
					r := in.Jobs[i].Instances
					if a < r {
						r = a
					}
					a -= r
					seats = append(seats, seat{job: i, rate: r * in.OnFrac[t]})
				}
			}
			s.seats[t] = seats
			if invariant.Enabled {
				// Progressive filling may never seat more instances than
				// the device has: alloc caps at demand and sum(alloc) at
				// the instance count.
				invariant.Check(busy[t] <= n+1e-9,
					"rrsim: seated %v instances of %v on %v devices", busy[t], t, n)
			}
		}

		// Earliest completion among the seated jobs (the only ones
		// draining). Pure min: visiting seats in the same type-then-
		// seating order the merged list used yields the same value.
		dt := math.Inf(1)
		nseated := 0
		for t := host.ProcType(0); t < host.NumProcTypes; t++ {
			if in.Hardware.Proc[t].Count == 0 {
				continue
			}
			for _, st := range s.seats[t] {
				if d := rem[st.job] / st.rate; d < dt {
					dt = d
				}
			}
			nseated += len(s.seats[t])
		}

		if firstStep {
			for t := host.ProcType(0); t < host.NumProcTypes; t++ {
				n := float64(in.Hardware.Proc[t].Count)
				res.IdleNow[t] = math.Max(0, n-busy[t])
				satOpen[t] = n > 0 && busy[t] >= n-1e-9
			}
			firstStep = false
		}

		// Step length: next job completion (or horizon end if no work).
		atEnd := false
		if unfinished == 0 || nseated == 0 || math.IsInf(dt, 1) {
			// Nothing can progress: run the clock to the horizon so the
			// shortfall integral completes, then stop.
			dt = in.HorizonMax - elapsed
			atEnd = true
			if dt <= 0 {
				break
			}
		}

		// Integrate shortfall and saturation over [elapsed, elapsed+dt].
		for t := host.ProcType(0); t < host.NumProcTypes; t++ {
			n := float64(in.Hardware.Proc[t].Count)
			if n == 0 {
				continue
			}
			// A saturated type contributes nothing to its shortfall
			// integrals (idle*ov == 0), so skip the overlap tests.
			if idle := math.Max(0, n-busy[t]); idle > 0 {
				if ov := overlap(elapsed, elapsed+dt, 0, in.HorizonMin); ov > 0 {
					res.ShortfallMin[t] += idle * ov
				}
				if ov := overlap(elapsed, elapsed+dt, 0, in.HorizonMax); ov > 0 {
					res.ShortfallMax[t] += idle * ov
				}
			}
			if satOpen[t] {
				if busy[t] >= n-1e-9 {
					res.Saturated[t] += dt
				} else {
					satOpen[t] = false
				}
			}
		}
		if in.Trace {
			res.Trace = append(res.Trace, TraceStep{
				Start: in.Now + elapsed, End: in.Now + elapsed + dt, Busy: busy,
			})
		}

		if invariant.Enabled {
			invariant.Check(dt >= 0 && !math.IsNaN(dt),
				"rrsim: non-monotone step %v at elapsed %v", dt, elapsed)
		}
		// Advance the seated jobs (the only ones with a nonzero rate),
		// in the same type-then-seating order the merged list used.
		for t := host.ProcType(0); t < host.NumProcTypes; t++ {
			if in.Hardware.Proc[t].Count == 0 {
				continue
			}
			for _, st := range s.seats[t] {
				i := st.job
				rem[i] -= st.rate * dt
				if rem[i] <= 1e-9 {
					rem[i] = 0
					unfinished--
					j := in.Jobs[i]
					j.ProjectedFinish = in.Now + elapsed + dt
					j.Endangered = j.ProjectedFinish > j.Deadline-in.DeadlineMargin
					if j.Endangered {
						res.NumEndangered++
					}
					// The group's cached demand is now stale. Exact
					// groups update in place — drop the job (keeping
					// arrival order; see group) and subtract its
					// demand, which for integral values matches the
					// ordered rescan bit for bit. Others defer to the
					// dirty sweep at the top of the next step, which
					// drops finished members and re-sums in one pass.
					// Either way the group is marked dirty so its type
					// re-seats; seats within a type are contiguous per
					// project, so consecutive same-group finishes
					// dedup against the last entry.
					if s.exact[j.Type][j.Project] {
						g := &s.groups[j.Type][j.Project]
						m := g.members()
						for k, gi := range m {
							if gi == i {
								copy(m[1:k+1], m[:k])
								g.head++
								break
							}
						}
						s.demand[j.Type][j.Project] -= j.Instances
					}
					k := groupKey{t: j.Type, p: int32(j.Project)}
					if m := len(s.dirty); m == 0 || s.dirty[m-1] != k {
						s.dirty = append(s.dirty, k)
					}
				}
			}
		}
		elapsed += dt
		if atEnd {
			break
		}
	}

	// Jobs that never finish (no device, zero rate forever).
	for i, j := range in.Jobs {
		if rem[i] > 0 {
			j.ProjectedFinish = math.Inf(1)
			j.Endangered = true
			res.NumEndangered++
		}
	}
}

// allocate distributes `total` capacity among demands in proportion to
// weights, capping each at its demand and redistributing the excess
// (progressive filling). The returned slice satisfies alloc[i] <=
// demand[i], sum(alloc) <= total, and sum(alloc) == min(total,
// sum(demand)) up to round-off. It is valid until the next call.
//
//bce:hotpath
//bce:scratch
func (s *Simulator) allocate(demand, weight []float64, total float64) []float64 {
	n := len(demand)
	s.alloc = growFloats(s.alloc, n)
	alloc := s.alloc
	for i := range alloc {
		alloc[i] = 0
	}
	if total <= 0 {
		return alloc
	}
	if cap(s.active) < n {
		//bce:allocok amortized grow of a reusable scratch buffer, stops once sized to the workload
		s.active = make([]bool, n)
	}
	active := s.active[:n]
	nActive := 0
	for i := range demand {
		if demand[i] > 0 && weight[i] > 0 {
			active[i] = true
			nActive++
		} else {
			active[i] = false
		}
	}
	remaining := total
	for iter := 0; iter < n+1 && nActive > 0 && remaining > 1e-12; iter++ {
		var wsum float64
		for i := range demand {
			if active[i] {
				wsum += weight[i]
			}
		}
		if wsum <= 0 {
			break
		}
		capped := false
		for i := range demand {
			if !active[i] {
				continue
			}
			fair := remaining * weight[i] / wsum
			if alloc[i]+fair >= demand[i]-1e-12 {
				// This entry saturates; grant its demand and
				// redistribute the rest next round.
				remaining -= demand[i] - alloc[i]
				alloc[i] = demand[i]
				active[i] = false
				nActive--
				capped = true
			}
		}
		if !capped {
			for i := range demand {
				if active[i] {
					alloc[i] += remaining * weight[i] / wsum
				}
			}
			remaining = 0
		}
	}
	return alloc
}

// overlap returns the length of the intersection of [a0,a1] and [b0,b1].
func overlap(a0, a1, b0, b1 float64) float64 {
	lo := math.Max(a0, b0)
	hi := math.Min(a1, b1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}
