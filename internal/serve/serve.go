// Package serve is the emulator's job-submission service — the layer
// that turns the one-shot web frontend into a traffic-bearing system.
// It is shaped like the BOINC server machinery the paper's platform
// descends from: volunteer-facing services survive load not by
// spawning unbounded work per request but by queueing submissions in
// front of a fixed number of run slots and shedding load explicitly
// when the queue is full.
//
// Synchronous (Do) and asynchronous (Submit) requests share every
// piece:
//
//   - one job table: every admitted request is a job record, and the
//     records double as the result cache. An emulation is a pure
//     function of (scenario fingerprint, seed, policies, days) by the
//     determinism contract (DESIGN.md §10), so a done job's outcome
//     serves every identical request until MaxJobs evicts the record;
//   - one admission policy: a request identical to a live job joins
//     it, one identical to a done job is a cache hit, a full queue
//     sheds with ErrQueueFull (HTTP layers map it to 429 +
//     Retry-After), and anything else becomes a new queued job;
//   - one execution path: a job waits for one of Workers run slots,
//     executes, releases the slot and publishes its terminal state.
//     Submit runs it on a new goroutine and returns a ticket at once;
//     Do runs it on the caller's goroutine and returns the outcome;
//   - progress events: every job publishes state transitions (and,
//     for studies, scenario counts) to watchers, which the web layer
//     streams out as server-sent events.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"bce/internal/client"
	"bce/internal/population"
	"bce/internal/runner"
	"bce/internal/scenario"
)

// Errors the HTTP layer maps to response codes.
var (
	// ErrQueueFull is load-shedding: QueueCap jobs are already waiting
	// for a run slot. HTTP layers respond 429 with a Retry-After
	// estimate.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrNotStarted is returned by Submit before Start (or after its
	// context ended): a submitted job would have no context to run
	// under.
	ErrNotStarted = errors.New("serve: service not started")
	// ErrUnknownJob is returned for ticket IDs the service has no
	// record of (never issued, or evicted).
	ErrUnknownJob = errors.New("serve: unknown job")
)

// State is a job's lifecycle state.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// Kind selects what a job computes.
type Kind string

const (
	KindRun   Kind = "run"   // one emulation of one scenario
	KindStudy Kind = "study" // a streaming population study
)

// Request describes one unit of work. Exactly the fields that the
// fingerprint canonicalizes determine the result, so two Requests with
// equal fingerprints are interchangeable.
type Request struct {
	Kind Kind

	// Scenario is the full emulator input for KindRun (it carries the
	// scenario JSON, seed, policies, and duration — everything the
	// result is a function of).
	Scenario *scenario.Scenario

	// Study parameters for KindStudy.
	StudyScenarios int
	StudyDays      float64
	StudySeed      int64
}

// Validate checks the request is runnable before it takes a queue slot.
func (r Request) Validate() error {
	switch r.Kind {
	case KindRun:
		if r.Scenario == nil {
			return fmt.Errorf("serve: run request without a scenario")
		}
		if _, err := r.Scenario.Config(); err != nil {
			return err
		}
	case KindStudy:
		if r.StudyScenarios <= 0 {
			return fmt.Errorf("serve: study request with %d scenarios", r.StudyScenarios)
		}
		if r.StudyDays <= 0 {
			return fmt.Errorf("serve: study request with nonpositive days")
		}
	default:
		return fmt.Errorf("serve: unknown job kind %q", r.Kind)
	}
	return nil
}

// Outcome is a finished job's payload — everything the rendering layer
// needs, kept on the job record that produced it.
type Outcome struct {
	Fingerprint string
	Kind        Kind

	// KindRun payload.
	Scenario *scenario.Scenario
	Result   *client.Result
	Log      string // message log, capped at maxLogBytes
	LogCap   bool   // true when the log exceeded the cap and was cut

	// KindStudy payload.
	Study *population.Study
}

// Event is one progress notification streamed to a job's watchers.
type Event struct {
	State State  `json:"state"`
	Err   string `json:"err,omitempty"`
	// Done/Total report study progress (scenarios folded); zero for
	// single runs, whose only transitions are the state changes.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// CacheHit marks jobs satisfied from the result cache.
	CacheHit bool `json:"cache_hit,omitempty"`
}

// JobView is a snapshot of a job, safe to serialize.
type JobView struct {
	ID       string `json:"id"`
	Kind     Kind   `json:"kind"`
	State    State  `json:"state"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	Err      string `json:"err,omitempty"`
	Done     int    `json:"done,omitempty"`
	Total    int    `json:"total,omitempty"`
	// QueuePos is the number of jobs ahead at snapshot time (1-based
	// position minus one); meaningful only while queued.
	QueuePos int `json:"queue_pos,omitempty"`
}

// job is the service-internal record. id/fp/req/seq/ended are
// immutable after creation (run reads them without the lock);
// everything mutable is guarded by the owning Service's mutex.
type job struct {
	id       string
	fp       string
	req      Request
	state    State         //bce:guardedby Service.mu
	err      string        //bce:guardedby Service.mu
	cacheHit bool          //bce:guardedby Service.mu
	done     int           //bce:guardedby Service.mu — study progress
	total    int           //bce:guardedby Service.mu
	outcome  *Outcome      //bce:guardedby Service.mu
	watchers []chan Event  //bce:guardedby Service.mu
	seq      int           // admission order, for queue-position estimates
	ended    chan struct{} // closed at the terminal state; Do waits on it
}

// Config sizes the service. The zero value selects all defaults.
type Config struct {
	// Batch sizes the run slots: at most
	// runner.Resolve(runner.WithOptions(Batch)).Workers jobs, i.e.
	// Batch.Workers or GOMAXPROCS, execute at once across Submit and
	// Do. Progress/FailFast are unused here.
	Batch runner.Options
	// QueueCap bounds the number of queued jobs (admitted, waiting for
	// a run slot); beyond it Submit and Do shed with ErrQueueFull.
	// Default 64.
	QueueCap int
	// MaxJobs bounds retained job records, and with them the cached
	// outcomes: tickets stay resolvable, and done jobs keep serving
	// identical requests, until evicted oldest-first. Default 1024.
	MaxJobs int
}

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	return c
}

// Stats are the service's monotonic counters plus a queue snapshot.
type Stats struct {
	Runs      int // emulations/studies actually executed (cache misses)
	CacheHits int // requests served from a done job's outcome
	Shed      int // requests rejected with ErrQueueFull
	Queued    int // jobs waiting for a run slot right now
	Running   int // jobs executing right now
}

// Service is the job-submission engine. Construct with New; Do works
// at once, Submit after Start. All methods are safe for concurrent use.
type Service struct {
	// RunTimeout caps the wall-clock time of one emulation or study on
	// either path (0 = no cap). Read at execution time; set it before
	// serving requests.
	RunTimeout time.Duration

	cfg   Config
	slots chan struct{} // run slots: a job holds one while it executes

	mu    sync.Mutex
	jobs  map[string]*job //bce:guardedby mu
	order []string        //bce:guardedby mu — job IDs in admission order, for MaxJobs eviction
	byFP  map[string]*job //bce:guardedby mu — newest live or done job per fingerprint
	// runCtx is Start's context, under which Submit runs its jobs.
	runCtx  context.Context //bce:guardedby mu
	nextSeq int             //bce:guardedby mu
	stats   Stats           //bce:guardedby mu
	// emaRunSecs is an exponential moving average of recent execution
	// wall times, the basis of RetryAfter estimates.
	emaRunSecs float64 //bce:guardedby mu

	wg sync.WaitGroup // Submit's job goroutines
}

// New builds a service. Do works right away; call Start to accept
// Submit.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	workers := runner.Resolve(runner.WithOptions(cfg.Batch)).Workers
	if workers < 1 {
		workers = 1
	}
	return &Service{
		cfg:   cfg,
		slots: make(chan struct{}, workers),
		jobs:  make(map[string]*job),
		byFP:  make(map[string]*job),
	}
}

// Workers reports the number of run slots.
func (s *Service) Workers() int { return cap(s.slots) }

// QueueCap reports the queue capacity.
func (s *Service) QueueCap() int { return s.cfg.QueueCap }

// Start lets Submit run jobs under ctx. Cancelling ctx stops running
// jobs at their next simulator event, fails the ones still
// waiting for a run slot (closing their watchers), and makes later
// Submits return ErrNotStarted. Start is a no-op while an earlier
// Start context is live; Wait blocks until Submit's jobs have ended.
func (s *Service) Start(ctx context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.startedLocked() {
		s.runCtx = ctx
	}
}

func (s *Service) startedLocked() bool { return s.runCtx != nil && s.runCtx.Err() == nil }

// Started reports whether Submit accepts work.
func (s *Service) Started() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.startedLocked()
}

// Wait blocks until every job Submit started has ended. After the
// Start context is cancelled that is prompt.
func (s *Service) Wait() { s.wg.Wait() }

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// RetryAfter estimates how long a shed client should wait before
// resubmitting: the backlog's expected drain time through the run
// slots, floored at one second.
func (s *Service) RetryAfter() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	ema := s.emaRunSecs
	if ema <= 0 {
		ema = 1
	}
	backlog := s.stats.Queued + s.stats.Running + 1
	secs := ema * float64(backlog) / float64(cap(s.slots))
	if secs < 1 {
		secs = 1
	}
	return time.Duration(math.Ceil(secs)) * time.Second
}

// Submit admits a request and returns its ticket: a live job's ticket
// for a duplicate, a new done ticket for a cache hit, or a new queued
// job, which runs on its own goroutine under Start's context. A full
// queue sheds with ErrQueueFull.
func (s *Service) Submit(req Request) (JobView, error) {
	fp, err := fingerprint(req)
	if err != nil {
		return JobView{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j, adm, err := s.admitLocked(req, fp, true)
	if err != nil {
		return JobView{}, err
	}
	if adm == admitNew {
		ctx := s.runCtx
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.run(ctx, j) //bce:errok the outcome or error is published on the job record
		}()
	}
	return s.viewLocked(j), nil
}

// Do admits a request like Submit, then returns its outcome: at once
// for a cache hit, after waiting on the live job for a duplicate, or
// by running a new job on the caller's goroutine under ctx. It needs no
// Start. The returned bool reports a cache hit.
func (s *Service) Do(ctx context.Context, req Request) (*Outcome, bool, error) {
	fp, err := fingerprint(req)
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	j, adm, err := s.admitLocked(req, fp, false)
	s.mu.Unlock()
	switch {
	case err != nil:
		return nil, false, err
	case adm == admitNew:
		out, err := s.run(ctx, j)
		return out, false, err
	case adm == admitJoined:
		select {
		case <-j.ended:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state == StateFailed {
		return nil, false, errors.New(j.err)
	}
	return j.outcome, adm == admitHit, nil
}

// Job returns a snapshot of the ticket's job.
func (s *Service) Job(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return s.viewLocked(j), nil
}

// Outcome returns a finished job's payload. The bool is false while
// the job is still queued or running; failed jobs return an error.
func (s *Service) Outcome(id string) (*Outcome, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	switch j.state {
	case StateDone:
		return j.outcome, true, nil
	case StateFailed:
		return nil, true, errors.New(j.err)
	default:
		return nil, false, nil
	}
}

// Watch subscribes to a job's progress events. The channel carries the
// job's current state immediately, then every transition, and is
// closed once the job reaches a terminal state. The returned cancel
// func detaches the watcher (safe to call after close).
func (s *Service) Watch(id string) (<-chan Event, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	ch := make(chan Event, 16)
	ch <- s.eventLocked(j)
	if j.state.Terminal() {
		close(ch)
		return ch, func() {}, nil
	}
	j.watchers = append(j.watchers, ch)
	cancel := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for i, w := range j.watchers {
			if w == ch {
				j.watchers = append(j.watchers[:i], j.watchers[i+1:]...)
				return
			}
		}
	}
	return ch, cancel, nil
}

// --- internals ---

// fingerprint validates a request and returns its content address.
func fingerprint(req Request) (string, error) {
	if err := req.Validate(); err != nil {
		return "", err
	}
	return Fingerprint(req)
}

// admission says how admitLocked placed a request.
type admission int

const (
	admitNew    admission = iota // a new queued job: the caller runs it
	admitJoined                  // an identical live job: the caller waits on it
	admitHit                     // an identical done job: its outcome is ready
)

// admitLocked is the one admission policy, for Submit (async) and Do.
// An identical live job is joined. An identical done job is a cache
// hit; Submit gets a done ticket of its own, which also becomes the
// fingerprint's newest record. Otherwise, with QueueCap jobs already
// queued the request sheds with ErrQueueFull, and else it becomes a
// new queued job. Submit on a service without a live Start context
// fails with ErrNotStarted, after the join and hit checks.
func (s *Service) admitLocked(req Request, fp string, async bool) (*job, admission, error) {
	if j, ok := s.byFP[fp]; ok {
		if j.state != StateDone {
			return j, admitJoined, nil
		}
		s.stats.CacheHits++
		if async {
			hit := s.newJobLocked(req, fp)
			hit.state = StateDone
			hit.cacheHit = true
			hit.outcome = j.outcome
			s.notifyLocked(hit)
			s.byFP[fp] = hit
			return hit, admitHit, nil
		}
		return j, admitHit, nil
	}
	if async && !s.startedLocked() {
		return nil, 0, ErrNotStarted
	}
	if s.stats.Queued >= s.cfg.QueueCap {
		s.stats.Shed++
		return nil, 0, ErrQueueFull
	}
	j := s.newJobLocked(req, fp)
	s.byFP[fp] = j
	s.stats.Queued++
	return j, admitNew, nil
}

// run is the one execution path, for Submit's goroutines and Do's
// callers alike. The job takes one of Workers run slots (senders
// blocked on the buffered channel wake in arrival order), executes
// under ctx, publishes its terminal state and then releases the slot,
// so a job shows as running exactly while it holds one. If ctx ends
// before a slot frees up, the job fails without running. run returns
// execute's error itself, so callers can test it with errors.Is.
func (s *Service) run(ctx context.Context, j *job) (*Outcome, error) {
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		err := fmt.Errorf("serve: job stopped before it ran: %w", ctx.Err())
		s.finish(j, nil, err, 0)
		return nil, err
	}
	s.mu.Lock()
	j.state = StateRunning
	s.stats.Queued--
	s.stats.Running++
	s.notifyLocked(j)
	s.mu.Unlock()

	start := time.Now() //bce:wallclock run-duration EMA feeds real-time Retry-After estimates
	out, err := s.execute(ctx, j)
	elapsed := time.Since(start).Seconds() //bce:wallclock see above
	s.finish(j, out, err, elapsed)
	<-s.slots
	return out, err
}

// finish publishes a job's terminal state. A done job stays its
// fingerprint's record and counts as a run; a failed one leaves byFP,
// so the next identical request runs afresh.
func (s *Service) finish(j *job, out *Outcome, err error, elapsed float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state == StateRunning {
		s.stats.Running--
	} else {
		s.stats.Queued--
	}
	if err != nil {
		j.state = StateFailed
		j.err = err.Error()
		if s.byFP[j.fp] == j {
			delete(s.byFP, j.fp)
		}
	} else {
		j.state = StateDone
		j.outcome = out
		s.stats.Runs++
		if s.emaRunSecs == 0 {
			s.emaRunSecs = elapsed
		} else {
			s.emaRunSecs = float64(0.7*s.emaRunSecs) + float64(0.3*elapsed)
		}
	}
	s.notifyLocked(j)
}

func (s *Service) newJobLocked(req Request, fp string) *job {
	s.nextSeq++
	j := &job{
		// Tickets are sequence + fingerprint prefix: self-describing
		// in logs, no randomness needed (the service is not an
		// authentication boundary; results are content-addressed).
		id:    fmt.Sprintf("j%d-%.8s", s.nextSeq, fp),
		fp:    fp,
		req:   req,
		state: StateQueued,
		seq:   s.nextSeq,
		ended: make(chan struct{}),
	}
	if req.Kind == KindStudy {
		j.total = req.StudyScenarios
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	// Evict the oldest terminal records past the cap, with the
	// outcomes only they hold; live jobs are never evicted (the queue
	// bound keeps their count small).
	for len(s.jobs) > s.cfg.MaxJobs {
		evicted := false
		for i, id := range s.order {
			if old := s.jobs[id]; old.state.Terminal() {
				delete(s.jobs, id)
				if s.byFP[old.fp] == old {
					delete(s.byFP, old.fp)
				}
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break
		}
	}
	return j
}

func (s *Service) viewLocked(j *job) JobView {
	v := JobView{
		ID:       j.id,
		Kind:     j.req.Kind,
		State:    j.state,
		CacheHit: j.cacheHit,
		Err:      j.err,
		Done:     j.done,
		Total:    j.total,
	}
	// byFP holds done jobs too; skip the walk when no other job waits.
	if j.state == StateQueued && s.stats.Queued > 1 {
		for _, other := range s.byFP {
			if other.state == StateQueued && other.seq < j.seq {
				v.QueuePos++
			}
		}
	}
	return v
}

func (s *Service) eventLocked(j *job) Event {
	return Event{State: j.state, Err: j.err, Done: j.done, Total: j.total, CacheHit: j.cacheHit}
}

// notifyLocked publishes the job's current state to every watcher.
// Slow watchers lose intermediate events (non-blocking send) but never
// the terminal one: the channel close itself signals termination.
func (s *Service) notifyLocked(j *job) {
	ev := s.eventLocked(j)
	for _, w := range j.watchers {
		select {
		case w <- ev:
		default:
		}
	}
	if j.state.Terminal() {
		for _, w := range j.watchers {
			close(w)
		}
		j.watchers = nil
		close(j.ended)
	}
}

// maxLogBytes caps the retained message log of one run; the cap exists
// so the MaxJobs record bound also bounds memory.
const maxLogBytes = 2 << 20

// execute computes a job's outcome under ctx (plus RunTimeout, if
// set). It touches no service state except study progress.
func (s *Service) execute(ctx context.Context, j *job) (*Outcome, error) {
	if s.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.RunTimeout)
		defer cancel()
	}
	req := j.req
	out := &Outcome{Fingerprint: j.fp, Kind: req.Kind}
	switch req.Kind {
	case KindRun:
		cfg, err := req.Scenario.Config()
		if err != nil {
			return nil, err
		}
		lw := &capWriter{limit: maxLogBytes}
		cfg.RecordTimeline = true
		cfg.Log = lw
		res, err := runner.Run(ctx, cfg)
		if err != nil {
			return nil, err
		}
		out.Scenario = req.Scenario
		out.Result = res
		out.Log = lw.String()
		out.LogCap = lw.truncated
	case KindStudy:
		st, err := population.Run(ctx, population.Params{
			Scenarios:  req.StudyScenarios,
			Seed:       req.StudySeed,
			Population: scenario.PopulationParams{DurationDays: req.StudyDays},
			Progress: func(done, total int) {
				s.mu.Lock()
				defer s.mu.Unlock()
				j.done, j.total = done, total
				s.notifyLocked(j)
			},
		})
		if err != nil {
			return nil, err
		}
		out.Study = st
	default:
		return nil, fmt.Errorf("serve: unknown job kind %q", req.Kind)
	}
	return out, nil
}

// capWriter retains the first limit bytes written and records whether
// anything was dropped.
type capWriter struct {
	buf       []byte
	limit     int
	truncated bool
}

func (w *capWriter) Write(p []byte) (int, error) {
	if room := w.limit - len(w.buf); room > 0 {
		if len(p) <= room {
			w.buf = append(w.buf, p...)
		} else {
			w.buf = append(w.buf, p[:room]...)
			w.truncated = true
		}
	} else if len(p) > 0 {
		w.truncated = true
	}
	return len(p), nil
}

func (w *capWriter) String() string { return string(w.buf) }
