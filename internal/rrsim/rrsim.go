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
	rem    []float64 // per-job remaining instance-seconds at Now; 0 once finished
	alloc  []float64 // allocate() output
	bound  []float64 // allocate() output: per-group reuse bound
	active []bool    // allocate() progressive-filling state

	// groups[t][p] holds the unfinished type-t jobs of project p in
	// arrival order, with their remaining work and their seats.
	groups [host.NumProcTypes][]group

	// demand[t][p] caches group (t,p)'s unfinished instance demand, the
	// input of type t's allocate. It changes only when a member
	// finishes: an exact group (see group.exact) subtracts the job's
	// demand, any other re-sums its members in arrival order, the
	// order the reference per-step scan used, so the bits match.
	demand [host.NumProcTypes][]float64

	// seated[t] lists, in project order, the type-t groups that hold
	// seats: the only ones that drain. It changes only when type t
	// re-allocates.
	seated [host.NumProcTypes][]int32
}

// group is one (type, project) job group. Its members are buf[head:],
// in arrival order. Finished members leave in the step they finish
// (see retire), so every member has work left.
//
// Its seats are its first runs[len(runs)-1].end members: seating
// fills a group from the front. runs splits them into maximal
// stretches of positions that drain at one rate. A run's least
// remaining work over its rate is its earliest completion, and one
// product of its rate and a step length drains every seat in it.
type group struct {
	buf  []member
	head int
	runs []run

	// alloc and bound are this group's entries of its type's last
	// allocate: the instances it was granted, and the bound that
	// decides whether a lower demand would change that allocation.
	alloc, bound float64

	// exact marks groups whose every member has an integral Instances
	// value with an integral total below 2^52: float64 addition and
	// subtraction on their demand are exact, so ANY summation order
	// yields the same bits and a finish can simply subtract the job's
	// demand instead of re-summing the group.
	exact bool

	// uniform marks groups whose members all have the same Instances,
	// inst. Seating walks the same min(Instances, allocation left)
	// sequence whoever the members are, so a seat's rate depends only on
	// its position, and a finish need not re-seat the group.
	uniform bool
	inst    float64
}

// member is one unfinished job of a group.
type member struct {
	job  int32
	left float64 // remaining instance-seconds
}

// run is a stretch of a group's seat positions with one drain rate.
type run struct {
	end   int     // one past the run's last seat position
	rate  float64 // instance-seconds drained per second by each seat (> 0)
	least float64 // least remaining work among the run's seats
}

// members returns the group's current members in arrival order.
func (g *group) members() []member { return g.buf[g.head:] }

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
	for t := range s.groups {
		for len(s.groups[t]) < nproj {
			s.groups[t] = append(s.groups[t], group{})
		}
		for p := 0; p < nproj; p++ {
			g := &s.groups[t][p]
			*g = group{buf: g.buf[:0], runs: g.runs[:0], exact: true, uniform: true}
		}
		s.demand[t] = growFloats(s.demand[t], nproj)
		clear(s.demand[t])
		s.seated[t] = s.seated[t][:0]
	}
	// Remaining work per job in instance-seconds. Unfinished jobs are
	// indexed by (type, project) in the same scan. Jobs whose project
	// has no share entry get no group: they can never run and are
	// classified endangered at the end, like any other job with no
	// rate. Demand accumulates job by job in arrival order — the order
	// a finish's re-sum uses, so the two always agree bit for bit.
	s.rem = growFloats(s.rem, len(in.Jobs))
	rem := s.rem
	for i, j := range in.Jobs {
		rem[i] = j.Remaining * j.Instances
		switch {
		case rem[i] <= 0:
			// Already finished at simulation start: it cannot miss its
			// deadline, however late Now is, so it is never endangered.
			j.ProjectedFinish = in.Now
			j.Endangered = false
		case rem[i] > 0 && j.Project >= 0 && j.Project < nproj &&
			j.Type >= 0 && j.Type < host.NumProcTypes:
			g := &s.groups[j.Type][j.Project]
			if len(g.buf) == 0 {
				g.inst = j.Instances
			} else if j.Instances != g.inst {
				g.uniform = false
			}
			g.buf = append(g.buf, member{job: int32(i), left: rem[i]})
			d := s.demand[j.Type][j.Project] + j.Instances
			s.demand[j.Type][j.Project] = d
			if d >= 1<<52 || (j.Instances != 1 && j.Instances != math.Trunc(j.Instances)) {
				g.exact = false
			}
		}
	}

	satOpen := [host.NumProcTypes]bool{}
	firstStep := true
	elapsed := 0.0 // sim time since Now

	// The host's processor types; the others never seat a job.
	var kinds [host.NumProcTypes]host.ProcType
	present := kinds[:0]
	for t := host.ProcType(0); t < host.NumProcTypes; t++ {
		if in.Hardware.Proc[t].Count > 0 {
			present = append(present, t)
		}
	}

	// busy and the seats persist across steps; a type re-allocates only
	// when a finish may have changed its allocation (see reseat). next[t]
	// is the earliest completion among type t's seats: for a rate ρ > 0,
	// x ≤ y implies fl(x/ρ) ≤ fl(y/ρ), so a run's least remaining work
	// over its rate is the least of its seats' quotients, and a min is
	// order-free.
	var busy, next [host.NumProcTypes]float64
	var stale [host.NumProcTypes]bool
	for t := range stale {
		stale[t] = true
	}

	for step := 0; step < maxSteps; step++ {
		for _, t := range present {
			if !stale[t] {
				continue
			}
			stale[t] = false
			n := float64(in.Hardware.Proc[t].Count)
			busy[t], next[t] = s.reallocate(t, n, in.Shares, in.OnFrac[t], in.Jobs)
			if invariant.Enabled {
				// Progressive filling may never seat more instances than
				// the device has: alloc caps at demand and sum(alloc) at
				// the instance count.
				invariant.Check(busy[t] <= n+1e-9,
					"rrsim: seated %v instances of %v on %v devices", busy[t], t, n)
			}
		}

		// Earliest completion among the seated jobs (the only ones
		// draining).
		dt := math.Inf(1)
		for _, t := range present {
			dt = min(dt, next[t])
		}

		if firstStep {
			for t := host.ProcType(0); t < host.NumProcTypes; t++ {
				n := float64(in.Hardware.Proc[t].Count)
				res.IdleNow[t] = max(0, n-busy[t])
				satOpen[t] = n > 0 && busy[t] >= n-1e-9
			}
			firstStep = false
		}

		// Step length: next job completion (or horizon end if no work).
		// With no seat, or no finite completion, nothing can progress:
		// run the clock to the horizon so the shortfall integral
		// completes, then stop.
		atEnd := false
		if math.IsInf(dt, 1) {
			dt = in.HorizonMax - elapsed
			atEnd = true
			if dt <= 0 {
				break
			}
		}

		// Integrate shortfall and saturation over [elapsed, elapsed+dt].
		for _, t := range present {
			n := float64(in.Hardware.Proc[t].Count)
			// A saturated type contributes nothing to its shortfall
			// integrals (idle*ov == 0), so skip the overlap tests.
			if idle := max(0, n-busy[t]); idle > 0 {
				if ov := overlap(elapsed, elapsed+dt, 0, in.HorizonMin); ov > 0 {
					res.ShortfallMin[t] += float64(idle * ov)
				}
				if ov := overlap(elapsed, elapsed+dt, 0, in.HorizonMax); ov > 0 {
					res.ShortfallMax[t] += float64(idle * ov)
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
		// Advance the seats (the only jobs with a nonzero rate), one run
		// at a time: every seat of a run subtracts the same rounded
		// product, and the survivors' least remaining work gives the
		// run's next earliest completion. Each seat's subtraction is its
		// own, so the group-by-group order changes no bit.
		at := in.Now + elapsed + dt
		for _, t := range present {
			next[t] = math.Inf(1)
			for _, p := range s.seated[t] {
				g := &s.groups[t][p]
				m := g.members()
				start, last, done, done0 := 0, 0, 0, 0
				for ri := range g.runs {
					r := &g.runs[ri]
					drain := float64(r.rate * dt)
					least := math.Inf(1)
					for k := start; k < r.end; k++ {
						x := m[k].left - drain
						m[k].left = x
						if x <= 1e-9 {
							last = k
							done++
						} else if x < least {
							least = x
						}
					}
					r.least = least
					start = r.end
					if ri == 0 {
						done0 = done
					}
				}
				if done > 0 {
					res.NumEndangered += s.retire(t, int(p), last, done, at, in.DeadlineMargin, in.Jobs)
					if !stale[t] {
						stale[t] = s.reseat(t, int(p), done0, in.OnFrac[t], in.Jobs)
					}
				}
				next[t] = min(next[t], g.earliest())
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

// reallocate divides type t's n instances among its groups, re-seats
// every group from its new allocation and rebuilds the type's seated
// list. It returns the instances allocated, the type's busy count, and
// the earliest completion among its seats.
//
//bce:hotpath
//bce:scratch
func (s *Simulator) reallocate(t host.ProcType, n float64, shares []float64, onFrac float64, jobs []*Job) (busy, next float64) {
	alloc := s.allocate(s.demand[t], shares, n)
	next = math.Inf(1)
	seated := s.seated[t][:0]
	for p, a := range alloc {
		busy += a
		g := &s.groups[t][p]
		g.alloc, g.bound = a, s.bound[p]
		g.seat(onFrac, jobs)
		if len(g.runs) > 0 {
			seated = append(seated, int32(p))
			next = min(next, g.earliest())
		}
	}
	s.seated[t] = seated
	return busy, next
}

// earliest returns how long the group's first seat to finish takes:
// each run's least remaining work over its rate, the least of them.
func (g *group) earliest() float64 {
	d := math.Inf(1)
	for _, r := range g.runs {
		d = min(d, r.least/r.rate)
	}
	return d
}

// seat seats the group's jobs into its allocation in arrival order:
// each member gets min(Instances, allocation left) until the
// allocation is spent, and jobs beyond it wait. Seating deliberately
// ignores which job happens to be running right now: a state-dependent
// seating makes the endangered classification self-invalidating (the
// job the scheduler promotes immediately looks safe and is demoted
// again), causing preemption thrash.
//
//bce:hotpath
//bce:scratch
func (g *group) seat(onFrac float64, jobs []*Job) {
	g.runs = g.runs[:0]
	a := g.alloc
	for k, x := range g.members() {
		if a <= 1e-12 {
			break
		}
		// min(Instances, a) by compare: both are strictly positive
		// here, where math.Min is exact anyway.
		r := jobs[x.job].Instances
		if a < r {
			r = a
		}
		a -= r
		rate := r * onFrac
		if n := len(g.runs) - 1; n >= 0 && g.runs[n].rate == rate {
			g.runs[n].end = k + 1
			g.runs[n].least = min(g.runs[n].least, x.left)
		} else {
			g.runs = append(g.runs, run{end: k + 1, rate: rate, least: x.left})
		}
	}
}

// retire records the outcome of group (t,p)'s members that finished at
// time at — done of them, none past seat position last — and drops
// them from the group. The members ahead of a finished one move one
// slot right and head advances, so arrival order holds, survivors move
// only toward the front, and the members behind the last finisher stay
// put. Finally the group's demand is brought up to date. It returns
// how many of the finished jobs are endangered.
//
//bce:hotpath
//bce:scratch
func (s *Simulator) retire(t host.ProcType, p, last, done int, at, margin float64, jobs []*Job) (endangered int) {
	g := &s.groups[t][p]
	m := g.members()
	w, k := last, last
	for left := done; left > 0; k-- {
		x := m[k]
		if x.left > 1e-9 {
			m[w] = x
			w--
			continue
		}
		left--
		s.rem[x.job] = 0
		j := jobs[x.job]
		e := at > j.Deadline-margin
		j.ProjectedFinish, j.Endangered = at, e
		if e {
			endangered++
		}
		if g.exact {
			s.demand[t][p] -= j.Instances
		}
	}
	// Every member ahead of the first finisher survives.
	copy(m[done:w+1], m[:k+1])
	g.head += done
	if !g.exact {
		var d float64
		for _, x := range g.members() {
			d += jobs[x.job].Instances
		}
		s.demand[t][p] = d
	}
	return endangered
}

// reseat brings group (t,p)'s seats up to date after some of them
// finished (done0 of them in its first run) or reports that type t must
// re-allocate instead.
//
// A finish only lowers the group's demand, and allocate compares an
// uncapped group's demand with nothing but its bound (see allocate):
// while the bound stays below the new demand minus 1e-12, every
// comparison and so every float of a new allocate would repeat, and
// the allocation holds. Then a uniform group's seats keep their rates
// whoever fills them: survivors of the first run stay in it, as
// members only move toward the front, so its least remaining work
// folds in just the done0 seats at its end that new members moved
// into, and later runs (a uniform group has at most one, a single
// partial seat) are rescanned. A mixed group walks its members again.
// Walking every group again would give the same bits, but it reads
// each seat's job on every finish, which a wide host pays hundreds of
// times a pass (DESIGN §9 measures both).
//
//bce:hotpath
//bce:scratch
func (s *Simulator) reseat(t host.ProcType, p, done0 int, onFrac float64, jobs []*Job) (stale bool) {
	g := &s.groups[t][p]
	if g.bound >= s.demand[t][p]-1e-12 {
		return true
	}
	// The demand clears the bound, so the group is not empty. Nor does
	// an uncapped group hold fewer members than its allocation seats,
	// but for non-integral Instances that rests on rounding, so a group
	// that does re-seats like a mixed one.
	m := g.members()
	if !g.uniform || g.runs[len(g.runs)-1].end > len(m) {
		g.seat(onFrac, jobs)
		return false
	}
	from := max(0, g.runs[0].end-done0)
	for ri := range g.runs {
		r := &g.runs[ri]
		least := r.least
		if ri > 0 {
			least = math.Inf(1)
		}
		for _, x := range m[from:r.end] {
			least = min(least, x.left)
		}
		r.least = least
		from = r.end
	}
	return false
}

// allocate distributes `total` capacity among demands in proportion to
// weights, capping each at its demand and redistributing the excess
// (progressive filling). The returned slice satisfies alloc[i] <=
// demand[i], sum(alloc) <= total, and sum(alloc) == min(total,
// sum(demand)) up to round-off. It is valid until the next call.
//
// It also records in s.bound, per entry, the largest alloc[i]+fair it
// compared against demand[i]-1e-12 without capping entry i (at least
// 0), or +Inf if it capped the entry or left it inactive. An uncapped
// entry's demand enters the computation only through those
// comparisons, so a call that lowers demand[i] alone, to a value whose
// demand[i]-1e-12 still exceeds bound[i], makes every comparison come
// out the same and returns the same allocation, bit for bit. (A
// demand that falls to 0 deactivates the entry, and 0-1e-12 never
// exceeds a bound.)
//
//bce:hotpath
//bce:scratch
func (s *Simulator) allocate(demand, weight []float64, total float64) []float64 {
	n := len(demand)
	s.alloc = growFloats(s.alloc, n)
	s.bound = growFloats(s.bound, n)
	alloc, bound := s.alloc, s.bound
	for i := range alloc {
		alloc[i] = 0
		bound[i] = math.Inf(1)
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
			bound[i] = 0
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
			if lhs := alloc[i] + fair; lhs >= demand[i]-1e-12 {
				// This entry saturates; grant its demand and
				// redistribute the rest next round.
				remaining -= demand[i] - alloc[i]
				alloc[i] = demand[i]
				active[i] = false
				bound[i] = math.Inf(1)
				nActive--
				capped = true
			} else if lhs > bound[i] {
				bound[i] = lhs
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
	lo := max(a0, b0)
	hi := min(a1, b1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}
