package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"
	"sync"
	"time"

	"bce/internal/metrics"
	"bce/internal/runner"
	"bce/internal/scenario"
	"bce/internal/serve"
	"bce/internal/stats"
	"bce/internal/web"
)

const (
	mixDays    = 0.02
	mixClients = 2 // closed-loop clients, one keep-alive connection each
	mixWorkers = 2 // serve worker pool; with 2 clients nothing is shed
	// One submission in mixRepeatOneIn repeats one of the client's own
	// last mixRecent distinct scenarios. The original has always
	// finished (the loop is closed), so the repeat must hit the cache and
	// no scenario ever runs twice.
	mixRepeatOneIn = 4
	mixRecent      = 8
	// mixMaxRate bounds one client's requests per second, over twice the
	// fastest seen in a quarter-second window. A pass reserves room for
	// every result up front, so they do not grow the heap in steps: peak
	// RSS would then depend on where in the pass the last step fell.
	mixMaxRate = 6000
)

// mixOp is one request a client sends.
type mixOp struct {
	async  bool // the SSE API; otherwise the sync HTML form
	repeat bool // resubmits an earlier scenario of this client
	key    int  // index of the scenario among the client's distinct ones
}

// mixSchedule is one client's seed-derived request sequence, generated
// as the client goes. It keeps only the bodies a repeat can resend, so
// the pass's heap, and max_rss_mb, do not grow with its throughput;
// scenario regenerates any of them for the checks.
type mixSchedule struct {
	client int
	rng    *stats.RNG
	base   int64
	n      int               // distinct scenarios so far
	recent [mixRecent][]byte // body of distinct scenario k at k % mixRecent
}

func newMixSchedule(seed int64, client int) *mixSchedule {
	cs := runner.DeriveSeed(seed, client)
	return &mixSchedule{client: client, rng: stats.NewRNG(cs), base: runner.DeriveSeed(cs, 0)}
}

// scenario is the client's k-th distinct scenario.
func (s *mixSchedule) scenario(k int) *scenario.Scenario {
	scn := serve.DefaultLoadgenScenario(mixDays)
	scn.Seed = runner.DeriveSeed(s.base, k)
	scn.Name = fmt.Sprintf("mix-%d-%d", s.client, k)
	return scn
}

// body is the request body of distinct scenario k, one of the last
// mixRecent.
func (s *mixSchedule) body(k int) []byte { return s.recent[k%mixRecent] }

func (s *mixSchedule) next() (mixOp, error) {
	op := mixOp{async: s.rng.Intn(2) == 0}
	if s.n > 0 && s.rng.Intn(mixRepeatOneIn) == 0 {
		op.repeat = true
		op.key = s.n - 1 - s.rng.Intn(min(mixRecent, s.n))
		return op, nil
	}
	body, err := json.Marshal(s.scenario(s.n))
	if err != nil {
		return op, err
	}
	op.key = s.n
	s.recent[s.n%mixRecent] = body
	s.n++
	return op, nil
}

// mixResult is what one request returned, reduced to what the checks
// compare.
type mixResult struct {
	op      mixOp
	latMS   float64
	end     time.Duration // when the request completed, from the start of its pass
	hit     bool
	err     error
	vals    [5]float64 // async: exact figures from the result JSON
	summary string     // figures at the page's 4 decimals, jobs, missed, RPCs
	rawSum  [32]byte   // async: SHA-256 of the result JSON
}

// mixClient is one closed-loop client with its own connection.
type mixClient struct {
	base  string
	http  *http.Client
	sched *mixSchedule
	tr    *tracer
	start time.Time // when the pass started
}

func (c *mixClient) do(ctx context.Context, op mixOp) mixResult {
	r := mixResult{op: op}
	body := c.sched.body(op.key)
	var raw []byte
	t0 := time.Now()
	if op.async {
		r.err = c.async(ctx, body, t0, &r, &raw)
	} else {
		r.err = c.sync(ctx, body, &r)
	}
	done := time.Now()
	r.latMS = float64(done.Sub(t0).Nanoseconds()) / 1e6
	r.end = done.Sub(c.start)
	if op.async {
		// Keep a digest, not the payload, so the heap does not grow with
		// every result of the pass.
		r.rawSum = sha256.Sum256(raw)
	}
	return r
}

// call sends one request and reads the whole response body.
func (c *mixClient) call(ctx context.Context, method, path, ctype string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, data)
	}
	return data, nil
}

// async submits to /api/run, waits for the done event on the job's SSE
// stream, and fetches /api/jobs/{id}/result into raw.
func (c *mixClient) async(ctx context.Context, body []byte, t0 time.Time, r *mixResult, raw *[]byte) error {
	op := c.tr.begin("op.async", 0)
	defer c.tr.end(op)
	s := c.tr.begin("web.submit", op)
	data, err := c.call(ctx, http.MethodPost, "/api/run", "application/json", body)
	c.tr.end(s)
	if err != nil {
		return err
	}
	var sub struct {
		ID       string `json:"id"`
		CacheHit bool   `json:"cache_hit"`
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		return fmt.Errorf("submit reply: %w", err)
	}
	r.hit = sub.CacheHit

	s = c.tr.begin("web.events", op)
	left, err := c.events(ctx, sub.ID)
	c.tr.end(s)
	if err != nil {
		return err
	}
	c.tr.record("serve.queue_wait", op, t0, left)

	s = c.tr.begin("web.result", op)
	*raw, err = c.call(ctx, http.MethodGet, "/api/jobs/"+sub.ID+"/result", "", nil)
	c.tr.end(s)
	if err != nil {
		return err
	}
	var res struct {
		Metrics map[string]float64 `json:"metrics"`
		Jobs    int                `json:"jobs"`
		Missed  int                `json:"missed"`
		RPCs    int                `json:"rpcs"`
	}
	if err := json.Unmarshal(*raw, &res); err != nil {
		return fmt.Errorf("result: %w", err)
	}
	for i, n := range metrics.Names() {
		v, ok := res.Metrics[n]
		if !ok {
			return fmt.Errorf("result lacks figure %s", n)
		}
		r.vals[i] = v
	}
	r.summary = fmt.Sprintf("%s %d %d %d", formatVals(r.vals), res.Jobs, res.Missed, res.RPCs)
	return nil
}

// events reads the job's SSE stream to its end, which the server marks
// after the done event, and returns when the first event showing the
// job out of the queue (running or done) arrived.
func (c *mixClient) events(ctx context.Context, id string) (left time.Time, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return left, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return left, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return left, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	done := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return left, fmt.Errorf("event: %w", err)
		}
		if ev.State == serve.StateFailed {
			return left, fmt.Errorf("job %s failed: %s", id, ev.Err)
		}
		if ev.State != serve.StateQueued && left.IsZero() {
			left = time.Now()
		}
		done = done || ev.State == serve.StateDone
	}
	if err := sc.Err(); err != nil {
		return left, err
	}
	if !done {
		return left, fmt.Errorf("job %s: event stream ended before done", id)
	}
	return left, nil
}

var (
	figureCell = regexp.MustCompile(`<td>([0-9.]+)</td>`)
	countsLine = regexp.MustCompile(`(\d+) jobs completed \((\d+) missed their deadline\), (\d+) scheduler RPCs`)
)

// sync posts the HTML form to /run and reads the figures off the page.
func (c *mixClient) sync(ctx context.Context, body []byte, r *mixResult) error {
	s := c.tr.begin("web.sync", 0)
	page, err := c.call(ctx, http.MethodPost, "/run", "application/x-www-form-urlencoded",
		[]byte(url.Values{"state": {string(body)}}.Encode()))
	c.tr.end(s)
	if err != nil {
		return err
	}
	cells := figureCell.FindAllSubmatch(page, -1)
	counts := countsLine.FindSubmatch(page)
	if len(cells) != 5 || counts == nil {
		return fmt.Errorf("result page: %d figure cells, counts line found %v", len(cells), counts != nil)
	}
	var figs []string
	for _, m := range cells {
		figs = append(figs, string(m[1]))
	}
	r.summary = fmt.Sprintf("%s %s %s %s", strings.Join(figs, " "), counts[1], counts[2], counts[3])
	r.hit = bytes.Contains(page, []byte("served from the result cache"))
	return nil
}

// mixServer is an in-process bceweb on a loopback listener.
type mixServer struct {
	srv    *web.Server
	ts     *httptest.Server
	cancel context.CancelFunc
}

// mixWarmup is how many requests each client sends to a new server
// before measuring, from a schedule of its own, so the result cache and
// job table are full and the heap has grown as in steady service.
const mixWarmup = 200

func startMixServer(ctx context.Context, seed int64) (*mixServer, error) {
	sctx, cancel := context.WithCancel(ctx)
	srv := web.NewServer("")
	srv.Svc = serve.New(serve.Config{Batch: runner.Options{Workers: mixWorkers}})
	srv.Start(sctx)
	m := &mixServer{srv: srv, ts: httptest.NewServer(srv.Handler()), cancel: cancel}
	counts := make([]int, mixClients)
	for c := range counts {
		counts[c] = mixWarmup
	}
	warm, err := runMixPass(ctx, m, runner.DeriveSeed(seed, mixClients), 0, counts, nil)
	if err == nil {
		for _, rs := range warm.results {
			for _, r := range rs {
				if r.err != nil {
					err = fmt.Errorf("warm-up: %w", r.err)
				}
			}
		}
	}
	if err != nil {
		m.close()
		return nil, err
	}
	return m, nil
}

func (m *mixServer) close() {
	m.ts.Close()
	m.cancel()
	m.srv.Svc.Wait()
}

// mixPass is one run of the clients against a server, each client
// until the budget is spent or, in a replay, for exactly its count of
// requests.
type mixPass struct {
	results [][]mixResult // per client, in request order
	scheds  []*mixSchedule
	stats   serve.Stats
	wall    time.Duration
}

func runMixPass(ctx context.Context, srv *mixServer, seed int64, budget time.Duration, counts []int, tr *tracer) (*mixPass, error) {
	mp := &mixPass{results: make([][]mixResult, mixClients), scheds: make([]*mixSchedule, mixClients)}
	errs := make([]error, mixClients)
	var wg sync.WaitGroup
	before := srv.srv.Svc.Stats()
	t0 := time.Now()
	for c := 0; c < mixClients; c++ {
		tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		cl := &mixClient{base: srv.ts.URL, http: &http.Client{Transport: tp, Timeout: time.Minute},
			sched: newMixSchedule(seed, c), tr: tr, start: t0}
		mp.scheds[c] = cl.sched
		if budget > 0 {
			mp.results[c] = make([]mixResult, 0, int(budget.Seconds()*mixMaxRate))
		} else {
			mp.results[c] = make([]mixResult, 0, counts[c])
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer tp.CloseIdleConnections()
			for k := 0; ; k++ {
				if (budget > 0 && time.Since(t0) >= budget) || (budget <= 0 && k == counts[c]) || ctx.Err() != nil {
					return
				}
				op, err := cl.sched.next()
				if err != nil {
					errs[c] = err
					return
				}
				mp.results[c] = append(mp.results[c], cl.do(ctx, op))
			}
		}(c)
	}
	wg.Wait()
	mp.wall = time.Since(t0)
	after := srv.srv.Svc.Stats()
	mp.stats = serve.Stats{Runs: after.Runs - before.Runs, CacheHits: after.CacheHits - before.CacheHits,
		Shed: after.Shed - before.Shed}
	for _, err := range append(errs, ctx.Err()) {
		if err != nil {
			return nil, err
		}
	}
	return mp, nil
}

// mixWindows is how many equal stretches of wall time the measured pass
// is cut into: a quarter of a second each at 20 s. The shared machine
// slows in episodes of a fraction of a second to tens of seconds that
// stretch every request alike, by up to 1.8x, so the throughput and
// median-latency figures are read from the pass's fastest stretch, the
// one least slowed.
const mixWindows = 80

// mixWindow is one stretch of the measured pass: the requests that
// completed in it.
type mixWindow struct {
	reqs, runs int // requests, and those that ran an emulation (cache misses)
	latMS      []float64
}

// windows files every request of the pass under the stretch it
// completed in, and returns the stretches with their length in seconds.
func (mp *mixPass) windows() ([]mixWindow, float64) {
	ws := make([]mixWindow, mixWindows)
	width := max(mp.wall/mixWindows, 1)
	for _, rs := range mp.results {
		for _, r := range rs {
			w := &ws[min(int(r.end/width), mixWindows-1)]
			w.reqs++
			if !r.hit {
				w.runs++
			}
			w.latMS = append(w.latMS, r.latMS)
		}
	}
	return ws, width.Seconds()
}

// check compares every response with a direct in-process run of its
// scenario (refs, per client and key) and every cache hit with its
// original, and returns the pass's digest.
func (mp *mixPass) check(refs [][]hostOut, o *outcome) string {
	var d digest
	for c, rs := range mp.results {
		first := map[int]mixResult{}
		for k, r := range rs {
			o.attempted++
			if r.err != nil {
				o.fail("client %d request %d: %v", c, k, r.err)
				continue
			}
			ref := refs[c][r.op.key]
			want := fmt.Sprintf("%s %d %d %d", formatVals(ref.vals), ref.completed, ref.missed, ref.rpcs)
			switch {
			case r.summary != want:
				o.fail("client %d request %d: got %q, direct run gives %q", c, k, r.summary, want)
			case r.op.async && r.vals != ref.vals:
				o.fail("client %d request %d: figures %v, direct run gives %v", c, k, r.vals, ref.vals)
			case r.hit != r.op.repeat:
				o.fail("client %d request %d: cache hit %v for a repeat=%v submission", c, k, r.hit, r.op.repeat)
			}
			if orig, ok := first[r.op.key]; !ok {
				first[r.op.key] = r
			} else if r.summary != orig.summary || (r.op.async && orig.op.async && r.rawSum != orig.rawSum) {
				o.fail("client %d request %d: cache hit differs from its original", c, k)
			}
			d.add("%d %d %v %v %s", c, k, r.op.async, r.hit, r.summary)
		}
	}
	return d.String()
}

// mixRefs runs every distinct scenario of the pass directly, on
// mixClients goroutines.
func mixRefs(ctx context.Context, scheds []*mixSchedule) ([][]hostOut, error) {
	refs := make([][]hostOut, len(scheds))
	type job struct{ c, k int }
	var jobs []job
	for c, s := range scheds {
		refs[c] = make([]hostOut, s.n)
		for k := range s.n {
			jobs = append(jobs, job{c, k})
		}
	}
	errs := make([]error, mixClients)
	var wg sync.WaitGroup
	for w := 0; w < mixClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(jobs); i += mixClients {
				j := jobs[i]
				scn := scheds[j.c].scenario(j.k)
				out, err := runHost(ctx, nil, scn)
				if err != nil {
					errs[w] = fmt.Errorf("reference run of %s: %w", scn.Name, err)
					return
				}
				refs[j.c][j.k] = out
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return refs, nil
}

func runServeMix(ctx context.Context, e *env) (*outcome, error) {
	setupS, srv, err := setupTimes(setupRepeats,
		func() (*mixServer, error) { return startMixServer(ctx, e.seed) },
		(*mixServer).close)
	if err != nil {
		return nil, err
	}
	base, err := runMixPass(ctx, srv, e.seed, e.budget, nil, nil)
	srv.close()
	if err != nil {
		return nil, err
	}
	o := &outcome{metrics: map[string]float64{"max_rss_mb": maxRSSMiB()}}
	refs, err := mixRefs(ctx, base.scheds)
	if err != nil {
		return nil, err
	}
	o.digest = base.check(refs, o)

	var lat []float64
	counts := make([]int, mixClients)
	for c, rs := range base.results {
		counts[c] = len(rs)
		for _, r := range rs {
			lat = append(lat, r.latMS)
		}
	}
	o.note("requests %d (clients %v) in %.3fs; runs %d, cache hits %d, shed %d; latency samples %d",
		len(lat), counts, base.wall.Seconds(), base.stats.Runs, base.stats.CacheHits, base.stats.Shed, len(lat))
	if !e.trace {
		ws, width := base.windows()
		var reqs, runs, p50n int
		p50 := math.Inf(1)
		var meds []string
		for _, w := range ws {
			reqs, runs = max(reqs, w.reqs), max(runs, w.runs)
			if len(w.latMS) == 0 {
				continue
			}
			m := quantile(w.latMS, 0.5)
			meds = append(meds, fmt.Sprintf("%.3f", m))
			if m < p50 {
				p50, p50n = m, len(w.latMS)
			}
		}
		o.note("windows %d x %.3fs; most requests in one %d, most runs %d; median latency per window, ms: %s; p50 samples %d",
			mixWindows, width, reqs, runs, strings.Join(meds, " "), p50n)
		o.metrics["setup_s"] = setupS
		o.metrics["client_days_per_s"] = float64(runs) * mixDays / width
		o.metrics["scen_per_s"] = float64(reqs) / width
		o.metrics["rps"] = float64(reqs) / width
		o.metrics["p50_ms"] = p50
		o.metrics["p99_ms"] = quantile(lat, 0.99)
		return o, nil
	}

	// Each replay gets a fresh, warmed-up server, started and stopped
	// outside the traced region.
	if srv, err = startMixServer(ctx, e.seed); err != nil {
		return nil, err
	}
	var traced *mixPass
	tr, pr, err := tracedPass(e, "serve_mix", func(tr *tracer) error {
		var err error
		traced, err = runMixPass(ctx, srv, e.seed, 0, counts, tr)
		return err
	})
	srv.close()
	if err != nil {
		return nil, err
	}
	if srv, err = startMixServer(ctx, e.seed); err != nil {
		return nil, err
	}
	again, err := runMixPass(ctx, srv, e.seed, 0, counts, nil)
	srv.close()
	if err != nil {
		return nil, err
	}
	for _, p := range []*mixPass{traced, again} {
		if dg := p.check(refs, o); dg != o.digest {
			o.fail("replay digest %s differs from untraced %s", dg, o.digest)
		}
	}
	execMS, err := serveExecMS(ctx, base.scheds)
	if err != nil {
		return nil, err
	}

	m := zeroMetrics()
	addShares(m, pr.shares)
	distinct := 0
	var tot hostOut
	for _, rs := range refs {
		for _, r := range rs {
			distinct++
			tot.events += r.events
			tot.rpcs += r.rpcs
			tot.dispatched += r.dispatched
		}
	}
	days := float64(distinct) * mixDays
	var hitMS []float64
	for _, rs := range traced.results {
		for _, r := range rs {
			if r.hit {
				hitMS = append(hitMS, r.latMS)
			}
		}
	}
	runDays := float64(traced.stats.Runs) * mixDays
	m["sim.events_per_day"] = float64(tot.events) / days
	m["sim.events_per_cell"] = float64(tot.events) / float64(distinct)
	m["fetch.rpcs_per_day"] = float64(tot.rpcs) / days
	m["fetch.jobs_per_rpc"] = ratio(float64(tot.dispatched), float64(tot.rpcs))
	m["project.jobs_per_day"] = float64(tot.dispatched) / days
	m["runtime.allocs_per_day"] = ratio(float64(pr.allocs), runDays)
	m["runtime.bytes_per_day"] = ratio(float64(pr.bytes), runDays)
	m["serve.queue_wait_p50_ms"] = quantile(tr.durations("serve.queue_wait"), 0.5)
	m["serve.queue_wait_p99_ms"] = quantile(tr.durations("serve.queue_wait"), 0.99)
	m["serve.exec_p50_ms"] = quantile(execMS, 0.5)
	m["serve.exec_p99_ms"] = quantile(execMS, 0.99)
	m["serve.hit_p50_ms"] = quantile(hitMS, 0.5)
	m["serve.cache_hit_ratio"] = float64(traced.stats.CacheHits) / float64(len(lat))
	m["serve.runs_per_miss"] = float64(traced.stats.Runs) / float64(distinct)
	m["web.sync_p50_ms"] = quantile(tr.durations("web.sync"), 0.5)
	m["web.submit_p50_ms"] = quantile(tr.durations("web.submit"), 0.5)
	m["web.result_p50_ms"] = quantile(tr.durations("web.result"), 0.5)
	m["trace_overhead"] = traceOverhead(o, base.wall, traced.wall, again.wall)
	o.metrics = m
	o.note("traced: queue-wait samples %d, exec samples %d, hit samples %d",
		len(tr.durations("serve.queue_wait")), len(execMS), len(hitMS))
	return o, nil
}

// execSamples bounds how many distinct scenarios serveExecMS times.
const execSamples = 1000

// serveExecMS times Service.Do on a private service for the pass's
// first distinct scenarios. Each is a miss, so the call is the execute
// path a queued job takes between its running and done events:
// fingerprint, configure, emulate with timeline and log, cache. The
// HTTP clients cannot see that interval, because a tiny job is usually
// done before its event stream opens.
func serveExecMS(ctx context.Context, scheds []*mixSchedule) ([]float64, error) {
	svc := serve.New(serve.Config{Batch: runner.Options{Workers: 1}})
	tr := newTracer()
	for _, s := range scheds {
		for k := range s.n {
			if len(tr.spans) == execSamples {
				return tr.durations("serve.Do"), nil
			}
			scn := s.scenario(k)
			sp := tr.begin("serve.Do", 0)
			_, hit, err := svc.Do(ctx, serve.Request{Kind: serve.KindRun, Scenario: scn})
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			if hit {
				return nil, fmt.Errorf("scenario %s hit a fresh cache", scn.Name)
			}
		}
	}
	return tr.durations("serve.Do"), nil
}
