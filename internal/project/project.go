// Package project is the server-side substrate: a simplified model of a
// BOINC project's scheduler, matching the paper's "BOINC schedulers are
// simulated with a simplified model". A project holds application
// templates (device usage, runtime distribution, latency bound), may be
// sporadically unreachable or out of work, and answers scheduler RPCs by
// dispatching jobs that cover the requested instance-seconds, optionally
// applying a server-side deadline feasibility check.
package project

import (
	"fmt"
	"math"

	"bce/internal/host"
	"bce/internal/job"
	"bce/internal/stats"
)

// AppSpec is a template for the jobs one application supplies.
type AppSpec struct {
	Name  string
	Usage job.Usage

	// MeanDuration/StdevDuration parameterise the normally distributed
	// true runtimes (seconds on this host at full device allocation).
	MeanDuration  float64
	StdevDuration float64

	// LatencyBound sets each job's deadline: dispatch time + bound.
	LatencyBound float64

	// CheckpointPeriod is copied to generated tasks; <= 0 means the
	// application never checkpoints.
	CheckpointPeriod float64

	// EstErrBias and EstErrSigma inject a priori runtime estimate
	// error (paper §4.1 "errors in a priori job runtime estimates"):
	// the estimate sent with each job is
	// MeanDuration · EstErrBias · Lognormal(0, EstErrSigma).
	// Zero values mean an unbiased, exact-mean estimate.
	EstErrBias  float64
	EstErrSigma float64

	// InputBytes/OutputBytes size the jobs' files for the
	// file-transfer extension (0 = no files).
	InputBytes  float64
	OutputBytes float64

	// Weight is the app's share of the project's job stream when a
	// project supplies several kinds of jobs (default 1).
	Weight float64
}

func (a AppSpec) weight() float64 {
	if a.Weight <= 0 {
		return 1
	}
	return a.Weight
}

// Validate reports structural problems with the app template.
func (a AppSpec) Validate() error {
	if err := a.Usage.Validate(); err != nil {
		return fmt.Errorf("app %s: %w", a.Name, err)
	}
	if a.MeanDuration <= 0 {
		return fmt.Errorf("app %s: mean duration %v must be positive", a.Name, a.MeanDuration)
	}
	if a.StdevDuration < 0 {
		return fmt.Errorf("app %s: stdev %v must be nonnegative", a.Name, a.StdevDuration)
	}
	if a.LatencyBound <= 0 {
		return fmt.Errorf("app %s: latency bound %v must be positive", a.Name, a.LatencyBound)
	}
	return nil
}

// DeadlineCheck selects the server's dispatch-time feasibility policy,
// one of the emulator's server-side policy knobs (paper §4.3 mentions
// "server deadline-check policies" as a BCE input).
type DeadlineCheck int

const (
	// NoCheck dispatches regardless of feasibility.
	NoCheck DeadlineCheck = iota
	// SimpleCheck refuses jobs whose estimated runtime exceeds the
	// latency bound outright.
	SimpleCheck
	// AvailCheck additionally discounts the host's availability
	// fraction: est/on_frac must fit in the bound.
	AvailCheck
)

// String returns the policy name.
func (d DeadlineCheck) String() string {
	switch d {
	case NoCheck:
		return "none"
	case SimpleCheck:
		return "simple"
	case AvailCheck:
		return "availability"
	}
	return fmt.Sprintf("DeadlineCheck(%d)", int(d))
}

// Spec describes one attached project in a scenario.
type Spec struct {
	Name  string
	Share float64 // volunteer-assigned resource share (paper §2.1)
	Apps  []AppSpec

	// Downtime models sporadic maintenance: periods when scheduler
	// RPCs fail. MeanOff == 0 means always reachable. (Interpreted
	// as MeanOn = mean up period, MeanOff = mean down period.)
	Downtime host.AvailSpec

	// WorkGaps models periods when the project is up but has no jobs
	// to send. MeanOff == 0 means jobs are always available.
	WorkGaps host.AvailSpec

	// Check is the server deadline-check policy.
	Check DeadlineCheck

	// MaxJobsPerRPC caps the jobs sent per scheduler reply
	// (default 64).
	MaxJobsPerRPC int
}

// Validate reports structural problems with the project spec.
func (s Spec) Validate() error {
	if s.Share <= 0 {
		return fmt.Errorf("project %s: share %v must be positive", s.Name, s.Share)
	}
	if len(s.Apps) == 0 {
		return fmt.Errorf("project %s: no applications", s.Name)
	}
	for _, a := range s.Apps {
		if err := a.Validate(); err != nil {
			return fmt.Errorf("project %s: %w", s.Name, err)
		}
	}
	return nil
}

// Request is one processor type's slice of a scheduler RPC work request
// (paper §3.4): the client asks for enough jobs to occupy Instances idle
// instances and to add Seconds instance-seconds of queued work.
type Request struct {
	Type      host.ProcType
	Instances float64
	Seconds   float64
}

// HostInfo carries the host facts the server uses for deadline checks.
type HostInfo struct {
	OnFrac float64 // recent-average available fraction
}

// Server is the runtime state of one project's scheduler.
type Server struct {
	Spec  Spec
	Index int // project index within the scenario

	rng       *stats.RNG
	jobSeq    int
	reachable *flipFlop
	hasWork   *flipFlop

	// Dispatched counts jobs sent; Refused counts jobs withheld by the
	// deadline check.
	Dispatched int
	Refused    int
}

// flipFlop tracks an on/off process lazily: it stores the schedule of
// state changes as they are generated so queries at increasing times are
// cheap.
type flipFlop struct {
	proc    *host.Process
	always  bool
	until   float64 // time current period ends
	on      bool
	started bool
}

func newFlipFlop(spec host.AvailSpec, rng *stats.RNG) *flipFlop {
	if spec.MeanOff <= 0 {
		return &flipFlop{always: true, on: true}
	}
	return &flipFlop{proc: host.NewProcess(spec, rng)}
}

// stateAt returns whether the process is "on" at time t; t must be
// nondecreasing across calls.
func (f *flipFlop) stateAt(t float64) bool {
	if f.always {
		return true
	}
	if !f.started {
		d, on := f.proc.Next()
		f.until, f.on, f.started = d, on, true
	}
	for t >= f.until {
		d, on := f.proc.Next()
		f.until += d
		f.on = on
		if d <= 0 { // defensive: zero-length period
			f.until += 1e-6
		}
	}
	return f.on
}

// NewServer creates a project server with its own random stream.
func NewServer(spec Spec, index int, rng *stats.RNG) (*Server, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.MaxJobsPerRPC <= 0 {
		spec.MaxJobsPerRPC = 64
	}
	s := &Server{Spec: spec, Index: index, rng: rng}
	s.reachable = newFlipFlop(spec.Downtime, rng.Fork("downtime"))
	s.hasWork = newFlipFlop(spec.WorkGaps, rng.Fork("workgaps"))
	return s, nil
}

// Reachable reports whether the project answers RPCs at time now.
func (s *Server) Reachable(now float64) bool { return s.reachable.stateAt(now) }

// SuppliesType reports whether the project has applications using
// processor type t (the static property; job availability may still gate
// dispatch).
func (s *Server) SuppliesType(t host.ProcType) bool {
	for _, a := range s.Spec.Apps {
		if a.Usage.Type() == t {
			return true
		}
	}
	return false
}

// HasWork reports whether the project can send type-t jobs at time now.
func (s *Server) HasWork(now float64, t host.ProcType) bool {
	return s.SuppliesType(t) && s.hasWork.stateAt(now)
}

// pickApp chooses an application supplying type t, weighted by Weight.
func (s *Server) pickApp(t host.ProcType) *AppSpec {
	var total float64
	for i := range s.Spec.Apps {
		if s.Spec.Apps[i].Usage.Type() == t {
			total += s.Spec.Apps[i].weight()
		}
	}
	if total == 0 {
		return nil
	}
	x := s.rng.Float64() * total
	for i := range s.Spec.Apps {
		a := &s.Spec.Apps[i]
		if a.Usage.Type() != t {
			continue
		}
		x -= a.weight()
		if x <= 0 {
			return a
		}
	}
	// Float round-off: return the last matching app.
	for i := len(s.Spec.Apps) - 1; i >= 0; i-- {
		if s.Spec.Apps[i].Usage.Type() == t {
			return &s.Spec.Apps[i]
		}
	}
	return nil
}

// generate creates one task from an app template at dispatch time now.
func (s *Server) generate(a *AppSpec, now float64) *job.Task {
	s.jobSeq++
	dur := s.rng.TruncNormal(a.MeanDuration, a.StdevDuration,
		a.MeanDuration/10, a.MeanDuration*10)
	est := a.MeanDuration
	if a.EstErrBias > 0 {
		est *= a.EstErrBias
	}
	if a.EstErrSigma > 0 {
		est *= s.rng.Lognormal(0, a.EstErrSigma)
	}
	return &job.Task{
		Name:             fmt.Sprintf("%s_%s_%d", s.Spec.Name, a.Name, s.jobSeq),
		Project:          s.Index,
		Usage:            a.Usage,
		Duration:         dur,
		EstDuration:      est,
		ReceivedAt:       now,
		Deadline:         now + a.LatencyBound,
		CheckpointPeriod: a.CheckpointPeriod,
		InputBytes:       a.InputBytes,
		OutputBytes:      a.OutputBytes,
	}
}

// feasible applies the server deadline-check policy to a candidate.
func (s *Server) feasible(t *job.Task, bound float64, hi HostInfo) bool {
	switch s.Spec.Check {
	case SimpleCheck:
		return t.EstDuration <= bound
	case AvailCheck:
		onf := hi.OnFrac
		if onf <= 0 {
			onf = 1
		}
		return t.EstDuration/onf <= bound
	default:
		return true
	}
}

// Dispatch answers the work-request portion of a scheduler RPC: it
// returns jobs covering the requested idle instances and instance-
// seconds, for each requested type, subject to work availability, the
// per-RPC cap, and the deadline-check policy.
func (s *Server) Dispatch(now float64, reqs []Request, hi HostInfo) []*job.Task {
	if !s.Reachable(now) {
		return nil
	}
	var out []*job.Task
	for _, req := range reqs {
		if req.Seconds <= 0 && req.Instances <= 0 {
			continue
		}
		if !s.HasWork(now, req.Type) {
			continue
		}
		secs := req.Seconds
		inst := req.Instances
		for (secs > 1e-9 || inst > 1e-9) && len(out) < s.Spec.MaxJobsPerRPC {
			a := s.pickApp(req.Type)
			if a == nil {
				break
			}
			t := s.generate(a, now)
			if !s.feasible(t, a.LatencyBound, hi) {
				s.Refused++
				// A systematic refusal would loop forever; one refusal
				// per app per request is representative.
				break
			}
			out = append(out, t)
			s.Dispatched++
			secs -= float64(t.EstDuration * t.Usage.Instances())
			inst -= t.Usage.Instances()
		}
	}
	return out
}

// EstimatedQueueSeconds returns the instance-seconds a set of requests
// asks for, a helper for logging and tests.
func EstimatedQueueSeconds(reqs []Request) float64 {
	var sum float64
	for _, r := range reqs {
		sum += math.Max(0, r.Seconds)
	}
	return sum
}
