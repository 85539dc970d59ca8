// Package emserver is the complement the paper points to in §6.1/§6.2:
// an EmBOINC-style emulation of the *server side* of a BOINC project
// (Estrada et al., "Performance Prediction and Analysis of BOINC
// Projects: An Empirical Study with EmBOINC"). Where the client
// emulator drives real client policies against simulated servers, this
// package models the server's scheduling machinery — work generation,
// the feeder's shared-memory result cache, dispatch, replication and
// quorum validation, and the transitioner's timeout handling — against
// a simulated population of volunteer hosts.
//
// The host model here is deliberately statistical (speed and
// availability distributions, error and abandonment rates, periodic
// scheduler RPCs), mirroring EmBOINC's design.
package emserver

import (
	"fmt"
	"math"

	"bce/internal/sim"
	"bce/internal/stats"
)

// Params configures one server emulation.
type Params struct {
	// Duration is the emulated period in seconds (default 10 days).
	Duration float64
	Seed     int64

	// Host population.
	NHosts        int     // number of volunteer hosts (default 100)
	HostSpeedMean float64 // GFLOPS (default 3)
	HostSpeedCV   float64 // coefficient of variation (default 0.5)
	HostAvailMean float64 // mean available fraction (default 0.8)
	HostQueueSecs float64 // seconds of work hosts keep queued (default 8640)
	ConnectPeriod float64 // mean seconds between scheduler RPCs (default 3600)
	ErrorRate     float64 // probability a result computes to an error (default 0.03)
	AbandonRate   float64 // probability a result is never returned (default 0.05)

	// Workunits.
	FPOpsEst       float64 // operations per job (default 3.6e13 ≈ 1 h at 10 GF)
	DelayBound     float64 // latency bound in seconds (default 3 days)
	TargetNResults int     // initial replication (default 2)
	MinQuorum      int     // successes needed to validate (default 2)
	MaxErrorTotal  int     // give up on a workunit after this many failures (default 8)

	// Server machinery.
	CacheSize    int     // feeder shared-memory slots (default 100)
	FeederPeriod float64 // refill interval in seconds (default 60)
	LowWater     int     // keep at least this many unsent results (default 500)

	// HostLifetime is the mean time before a host churns (departs and
	// is replaced by a fresh one, dropping everything in progress);
	// 0 disables churn. EmBOINC models exactly this population
	// dynamic.
	HostLifetime float64

	// CreditNoise is the lognormal sigma of hosts' claimed credit
	// (default 0.2); the validator grants each validated workunit the
	// minimum claim among its quorum, so inflated claims don't pay.
	CreditNoise float64
}

func (p Params) withDefaults() Params {
	def := func(v *float64, d float64) {
		if *v <= 0 {
			*v = d
		}
	}
	defi := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&p.Duration, 10*86400)
	defi(&p.NHosts, 100)
	def(&p.HostSpeedMean, 3)
	def(&p.HostSpeedCV, 0.5)
	def(&p.HostAvailMean, 0.8)
	def(&p.HostQueueSecs, 8640)
	def(&p.ConnectPeriod, 3600)
	def(&p.FPOpsEst, 3.6e13)
	def(&p.DelayBound, 3*86400)
	defi(&p.TargetNResults, 2)
	defi(&p.MinQuorum, 2)
	defi(&p.MaxErrorTotal, 8)
	defi(&p.CacheSize, 100)
	def(&p.FeederPeriod, 60)
	defi(&p.LowWater, 500)
	// Zero means "use the default"; pass a tiny value (e.g. 1e-9) for
	// an effectively error-free population.
	if p.ErrorRate == 0 || p.ErrorRate < 0 || p.ErrorRate >= 1 {
		p.ErrorRate = 0.03
	}
	if p.AbandonRate == 0 || p.AbandonRate < 0 || p.AbandonRate >= 1 {
		p.AbandonRate = 0.05
	}
	if p.CreditNoise <= 0 {
		p.CreditNoise = 0.2
	}
	return p
}

// resultState tracks one result instance's lifecycle.
type resultState int

const (
	unsent resultState = iota
	inProgress
	succeeded
	errored
	timedOut
	cancelled
)

type result struct {
	wu    *workunit
	state resultState
	host  int
	sent  float64
	claim float64 // claimed credit, set when the result succeeds
}

type wuState int

const (
	wuActive wuState = iota
	wuValidated
	wuFailed
)

type workunit struct {
	id        int
	created   float64
	firstSent float64 // 0 until first dispatch
	state     wuState
	results   []*result
	successes int
	failures  int
}

type simHost struct {
	speed float64 // FLOPS
	avail float64 // available fraction (throughput scaling)
	queue float64 // queued seconds of work
	// gen increments when the host churns: completion events from a
	// previous generation are silently dropped (the old owner is gone).
	gen int
	// claimBias is the host's systematic credit over/under-claim.
	claimBias float64
}

// Stats is the emulation outcome.
type Stats struct {
	WUsCreated   int
	WUsValidated int
	WUsFailed    int

	ResultsCreated int
	Dispatched     int
	Succeeded      int
	Errored        int
	TimedOut       int
	Cancelled      int
	RPCs           int
	EmptyCacheRPCs int // RPCs that wanted work but the cache was dry
	Churned        int // host departures/replacements

	// CreditGranted is the total credit granted to validated
	// workunits (the minimum claim among each quorum, so inflated
	// claims don't pay); CreditClaimed sums all successful claims.
	CreditGranted float64
	CreditClaimed float64

	// FLOPS spent by hosts, split by what became of it.
	UsefulFlops    float64 // first MinQuorum successes of validated WUs
	RedundantFlops float64 // extra successes beyond the quorum
	WastedFlops    float64 // errors and successes of failed/late WUs

	// Turnaround: workunit creation to validation, seconds.
	Turnaround stats.Mean
	// DispatchLatency: workunit creation to first dispatch.
	DispatchLatency stats.Mean
}

// Throughput returns validated workunits per day.
func (s *Stats) Throughput(duration float64) float64 {
	return float64(s.WUsValidated) / (duration / 86400)
}

// WasteFraction returns the share of host FLOPS that did not become
// the quorum of a validated workunit.
func (s *Stats) WasteFraction() float64 {
	total := s.UsefulFlops + s.RedundantFlops + s.WastedFlops
	if total <= 0 {
		return 0
	}
	return (s.RedundantFlops + s.WastedFlops) / total
}

// String summarises the stats.
func (s *Stats) String() string {
	return fmt.Sprintf("WUs valid=%d failed=%d | results sent=%d ok=%d err=%d timeout=%d | waste=%.3f turnaround=%.0fs",
		s.WUsValidated, s.WUsFailed, s.Dispatched, s.Succeeded, s.Errored, s.TimedOut,
		s.WasteFraction(), s.Turnaround.Mean())
}

// Server is one emulation in progress.
type Server struct {
	p     Params
	sim   *sim.Simulator
	rng   *stats.RNG
	stats Stats

	wus     []*workunit
	unsent  []*result // the transitioner's backlog
	cache   []*result // feeder shared memory
	hosts   []*simHost
	hostRNG *stats.RNG
	nextWU  int
}

// New builds a server emulation.
func New(p Params) *Server {
	p = p.withDefaults()
	s := &Server{p: p, sim: sim.New(), rng: stats.NewRNG(p.Seed)}
	s.hostRNG = s.rng.Fork("hosts")
	for i := 0; i < p.NHosts; i++ {
		h := &simHost{}
		s.rollHost(h)
		s.hosts = append(s.hosts, h)
	}
	return s
}

// rollHost (re)draws a host's characteristics — used at start-up and
// whenever the host churns.
func (s *Server) rollHost(h *simHost) {
	h.speed = s.hostRNG.TruncNormal(s.p.HostSpeedMean, s.p.HostSpeedMean*s.p.HostSpeedCV,
		s.p.HostSpeedMean/10, s.p.HostSpeedMean*10) * 1e9
	h.avail = math.Min(1, math.Max(0.05, s.hostRNG.Normal(s.p.HostAvailMean, 0.15)))
	h.claimBias = s.hostRNG.Lognormal(0, s.p.CreditNoise)
	h.queue = 0
	h.gen++
}

// Run executes the emulation and returns the statistics.
func (s *Server) Run() *Stats {
	s.generateWork()
	s.feeder()
	s.sim.After(s.p.FeederPeriod, s.feederLoop)
	// Stagger the hosts' first RPCs across one connect period.
	rpcRNG := s.rng.Fork("rpc")
	for i := range s.hosts {
		i := i
		s.sim.After(rpcRNG.Uniform(0, s.p.ConnectPeriod), func() { s.hostRPC(i, rpcRNG) })
		if s.p.HostLifetime > 0 {
			s.scheduleChurn(i, rpcRNG)
		}
	}
	s.sim.RunUntil(s.p.Duration)
	return &s.stats
}

// scheduleChurn arranges for host hi to depart and be replaced after an
// exponentially distributed lifetime; everything it was computing is
// dropped (the transitioner's timeouts recover the workunits).
func (s *Server) scheduleChurn(hi int, rng *stats.RNG) {
	s.sim.After(rng.Exp(s.p.HostLifetime), func() {
		s.rollHost(s.hosts[hi])
		s.stats.Churned++
		s.scheduleChurn(hi, rng)
	})
}

// generateWork keeps the unsent backlog at the low-water mark (the
// work generator daemon).
func (s *Server) generateWork() {
	for len(s.unsent) < s.p.LowWater {
		wu := &workunit{id: s.nextWU, created: s.sim.Now()}
		s.nextWU++
		s.wus = append(s.wus, wu)
		s.stats.WUsCreated++
		for i := 0; i < s.p.TargetNResults; i++ {
			s.addResult(wu)
		}
	}
}

func (s *Server) addResult(wu *workunit) {
	r := &result{wu: wu}
	wu.results = append(wu.results, r)
	s.unsent = append(s.unsent, r)
	s.stats.ResultsCreated++
}

// feeder refills the shared-memory cache from the unsent backlog.
func (s *Server) feeder() {
	for len(s.cache) < s.p.CacheSize && len(s.unsent) > 0 {
		r := s.unsent[0]
		s.unsent = s.unsent[1:]
		if r.state != unsent { // cancelled while queued
			continue
		}
		s.cache = append(s.cache, r)
	}
}

func (s *Server) feederLoop() {
	s.generateWork()
	s.feeder()
	s.sim.After(s.p.FeederPeriod, s.feederLoop)
}

// hostRPC is one scheduler RPC: the host reports nothing (returns are
// modelled as events) and requests enough work to fill its queue.
func (s *Server) hostRPC(hi int, rng *stats.RNG) {
	h := s.hosts[hi]
	s.stats.RPCs++
	wantSecs := s.p.HostQueueSecs - h.queue
	wanted := wantSecs > 0
	for wantSecs > 0 {
		r := s.takeFromCache(hi)
		if r == nil {
			if wanted {
				s.stats.EmptyCacheRPCs++
			}
			break
		}
		s.dispatch(r, hi)
		jobSecs := s.p.FPOpsEst / (h.speed * h.avail)
		wantSecs -= jobSecs
		h.queue += jobSecs
	}
	s.sim.After(rng.Exp(s.p.ConnectPeriod), func() { s.hostRPC(hi, rng) })
}

// takeFromCache pops a result the host may receive (not a sibling of
// one it already holds — BOINC's "one result per WU per host" rule).
func (s *Server) takeFromCache(hi int) *result {
	for i, r := range s.cache {
		if r.state != unsent || r.wu.state != wuActive {
			s.cache = append(s.cache[:i], s.cache[i+1:]...)
			return s.takeFromCache(hi)
		}
		conflict := false
		for _, sib := range r.wu.results {
			if sib != r && sib.host == hi && sib.state != unsent {
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		s.cache = append(s.cache[:i], s.cache[i+1:]...)
		return r
	}
	return nil
}

// dispatch sends a result to a host and schedules its outcome and the
// transitioner's timeout check.
func (s *Server) dispatch(r *result, hi int) {
	h := s.hosts[hi]
	r.state = inProgress
	r.host = hi
	r.sent = s.sim.Now()
	if r.wu.firstSent == 0 {
		r.wu.firstSent = s.sim.Now()
		s.stats.DispatchLatency.Add(s.sim.Now() - r.wu.created)
	}
	s.stats.Dispatched++

	// Completion: after the host's queue drains to this job plus its
	// own computation (approximated by the queue length at dispatch).
	computeSecs := s.p.FPOpsEst / (h.speed * h.avail)
	finishAt := s.sim.Now() + h.queue + computeSecs
	abandoned := s.rng.Float64() < s.p.AbandonRate
	isError := !abandoned && s.rng.Float64() < s.p.ErrorRate
	gen := h.gen

	s.sim.At(math.Min(finishAt, s.p.Duration+1), func() {
		if s.hosts[hi].gen != gen {
			return // the host churned; this computation is gone
		}
		s.hosts[hi].queue -= computeSecs
		if s.hosts[hi].queue < 0 {
			s.hosts[hi].queue = 0
		}
		if !abandoned {
			s.returned(r, isError)
		}
	})

	// Transitioner timeout check at the deadline.
	deadline := s.sim.Now() + s.p.DelayBound
	s.sim.At(deadline, func() { s.timeoutCheck(r) })
}

// returned processes a result arriving back at the server.
func (s *Server) returned(r *result, isError bool) {
	if r.state != inProgress {
		return // timed out (already replaced) or cancelled
	}
	wu := r.wu
	flops := s.p.FPOpsEst
	if isError {
		r.state = errored
		s.stats.Errored++
		s.stats.WastedFlops += flops
		wu.failures++
		s.transition(wu)
		return
	}
	r.state = succeeded
	s.stats.Succeeded++
	// Claimed credit: proportional to the job's operations, scaled by
	// the host's systematic bias (BOINC's "cobblestones").
	r.claim = float64(s.p.FPOpsEst / 1e9 * s.hosts[r.host].claimBias)
	s.stats.CreditClaimed += r.claim
	wu.successes++
	switch {
	case wu.state != wuActive:
		// Late success for an already-decided workunit.
		if wu.state == wuValidated {
			s.stats.RedundantFlops += flops
		} else {
			s.stats.WastedFlops += flops
		}
	case wu.successes >= s.p.MinQuorum:
		s.stats.UsefulFlops += flops
		s.validate(wu)
	default:
		s.stats.UsefulFlops += flops
	}
	s.transition(wu)
}

// timeoutCheck is the transitioner's deadline pass for one result.
func (s *Server) timeoutCheck(r *result) {
	if r.state != inProgress || r.wu.state != wuActive {
		return
	}
	r.state = timedOut
	s.stats.TimedOut++
	r.wu.failures++
	s.transition(r.wu)
}

// transition re-examines a workunit: issue replacement results for
// failures, fail it outright after too many errors.
func (s *Server) transition(wu *workunit) {
	if wu.state != wuActive {
		return
	}
	if wu.failures >= s.p.MaxErrorTotal {
		wu.state = wuFailed
		s.stats.WUsFailed++
		s.cancelOutstanding(wu)
		return
	}
	// Keep enough live results to still reach quorum.
	live := 0
	for _, r := range wu.results {
		if r.state == unsent || r.state == inProgress || r.state == succeeded {
			live++
		}
	}
	for live < s.p.MinQuorum {
		s.addResult(wu)
		live++
	}
}

// validate marks a workunit complete, grants credit (the minimum claim
// among its successful results, one grant per success, so over-claiming
// never pays), and cancels its unsent siblings.
func (s *Server) validate(wu *workunit) {
	wu.state = wuValidated
	s.stats.WUsValidated++
	s.stats.Turnaround.Add(s.sim.Now() - wu.created)
	grant := math.Inf(1)
	n := 0
	for _, r := range wu.results {
		if r.state == succeeded {
			grant = math.Min(grant, r.claim)
			n++
		}
	}
	if n > 0 && !math.IsInf(grant, 1) {
		s.stats.CreditGranted += float64(grant * float64(n))
	}
	s.cancelOutstanding(wu)
}

func (s *Server) cancelOutstanding(wu *workunit) {
	for _, r := range wu.results {
		if r.state == unsent {
			r.state = cancelled
			s.stats.Cancelled++
		}
	}
}

// Run is a convenience wrapper: build and run in one call.
func Run(p Params) *Stats {
	return New(p).Run()
}
