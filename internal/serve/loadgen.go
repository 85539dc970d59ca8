// Loadgen is the service's benchmark client (cf. sigmaos
// benchmarks/loadgen): it drives a running bceweb instance over HTTP
// through the async API and reports tail latency and throughput —
// closed-loop (a fixed set of virtual clients, each submit→wait→next)
// or open-loop (a fixed arrival rate regardless of completions, which
// is what exposes queueing collapse). Shed responses (429) honor the
// server's Retry-After.

package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"bce/internal/runner"
	"bce/internal/scenario"
)

// LoadgenOptions configures one load-generation run.
type LoadgenOptions struct {
	// URL is the target server base, e.g. "http://localhost:8080".
	URL string
	// Requests is the total number of submissions to complete.
	Requests int
	// Concurrency is the closed-loop virtual-client count (default 4).
	// Ignored in open-loop mode.
	Concurrency int
	// RatePerSec > 0 selects open-loop mode: submissions arrive at
	// this fixed rate regardless of completions.
	RatePerSec float64
	// Scenario is the submission template (a small built-in one when
	// nil). Each request gets a distinct derived seed unless Identical
	// is set, in which case every submission is byte-identical and the
	// run hammers the result cache instead of the emulator.
	Scenario  *scenario.Scenario
	Identical bool
	// Timeout caps one request end to end, submit through completion
	// (default 2 minutes).
	Timeout time.Duration
}

// LoadgenResult is the measured outcome of a load run.
type LoadgenResult struct {
	Requests  int           // completed successfully
	Failed    int           // terminal failures (job failed, HTTP error, timeout)
	Shed      int           // 429 responses observed (each retried)
	CacheHits int           // completions served from the result cache
	Elapsed   time.Duration // wall clock for the whole run
	P50       time.Duration
	P90       time.Duration
	P99       time.Duration
	// Throughput is completed requests per second of wall clock.
	Throughput float64
}

// Table renders the result as an aligned text block.
func (r *LoadgenResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "completed   %d\n", r.Requests)
	fmt.Fprintf(&b, "failed      %d\n", r.Failed)
	fmt.Fprintf(&b, "shed (429)  %d\n", r.Shed)
	fmt.Fprintf(&b, "cache hits  %d\n", r.CacheHits)
	fmt.Fprintf(&b, "elapsed     %v\n", r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "throughput  %.1f req/s\n", r.Throughput)
	fmt.Fprintf(&b, "latency     p50 %v   p90 %v   p99 %v\n",
		r.P50.Round(time.Microsecond), r.P90.Round(time.Microsecond), r.P99.Round(time.Microsecond))
	return b.String()
}

// DefaultLoadgenScenario is the built-in submission template: one tiny
// two-project host whose emulation takes well under a second, so the
// measured latency is dominated by the service layer under test.
func DefaultLoadgenScenario(days float64) *scenario.Scenario {
	if days <= 0 {
		days = 0.05
	}
	return &scenario.Scenario{
		Name: "loadgen", DurationDays: days, Seed: 1,
		Host: scenario.HostJSON{NCPU: 2, CPUGFlops: 1, MinQueueHours: 1, MaxQueueHours: 2},
		Projects: []scenario.ProjectJSON{
			{Name: "a", Share: 100, Apps: []scenario.AppJSON{{Name: "x", NCPUs: 1, MeanSecs: 1200, LatencySecs: 86400}}},
			{Name: "b", Share: 100, Apps: []scenario.AppJSON{{Name: "y", NCPUs: 1, MeanSecs: 2400, LatencySecs: 86400}}},
		},
	}
}

// Loadgen drives the target with o.Requests submissions and reports
// latency percentiles (nearest-rank over the completed set) and
// throughput. It returns an error only for setup problems; individual
// request failures are counted in the result.
func Loadgen(ctx context.Context, o LoadgenOptions) (*LoadgenResult, error) {
	if o.URL == "" {
		return nil, fmt.Errorf("loadgen: no target URL")
	}
	if o.Requests <= 0 {
		return nil, fmt.Errorf("loadgen: no requests")
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 4
	}
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Minute
	}
	if o.Scenario == nil {
		o.Scenario = DefaultLoadgenScenario(0)
	}
	base := strings.TrimSuffix(o.URL, "/")
	client := &http.Client{}

	// Pre-marshal every request body up front so marshalling cost
	// never lands inside a latency sample.
	bodies := make([][]byte, o.Requests)
	for i := range bodies {
		s := *o.Scenario
		if !o.Identical {
			s.Seed = runner.DeriveSeed(o.Scenario.Seed, i)
			s.Name = fmt.Sprintf("%s-%d", o.Scenario.Name, i)
		}
		b, err := json.Marshal(&s)
		if err != nil {
			return nil, fmt.Errorf("loadgen: marshalling scenario: %w", err)
		}
		bodies[i] = b
	}

	res := &LoadgenResult{}
	var mu sync.Mutex
	latencies := make([]time.Duration, 0, o.Requests)
	record := func(lat time.Duration, cacheHit bool, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			res.Failed++
			return
		}
		res.Requests++
		if cacheHit {
			res.CacheHits++
		}
		latencies = append(latencies, lat)
	}
	countShed := func(n int) {
		mu.Lock()
		res.Shed += n
		mu.Unlock()
	}

	start := time.Now() //bce:wallclock latency measurement is the whole point of a load generator
	var wg sync.WaitGroup
	if o.RatePerSec > 0 {
		// Open loop: fixed arrivals, one goroutine per in-flight request.
		interval := time.Duration(float64(time.Second) / o.RatePerSec)
		for i := 0; i < o.Requests; i++ {
			select {
			case <-ctx.Done():
			case <-time.After(interval): //bce:wallclock open-loop arrival pacing
			}
			if ctx.Err() != nil {
				break
			}
			wg.Add(1)
			go func(body []byte) {
				defer wg.Done()
				lat, hit, shed, err := oneRequest(ctx, client, base, body, o)
				countShed(shed)
				record(lat, hit, err)
			}(bodies[i%len(bodies)])
		}
	} else {
		// Closed loop: Concurrency clients, each submit→wait→next.
		next := make(chan []byte)
		for w := 0; w < o.Concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for body := range next {
					lat, hit, shed, err := oneRequest(ctx, client, base, body, o)
					countShed(shed)
					record(lat, hit, err)
				}
			}()
		}
		for i := 0; i < o.Requests && ctx.Err() == nil; i++ {
			select {
			case next <- bodies[i]:
			case <-ctx.Done():
			}
		}
		close(next)
	}
	wg.Wait()
	res.Elapsed = time.Since(start) //bce:wallclock load generator reports real HTTP latency, outside any emulation

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	res.P50 = nearestRank(latencies, 0.50)
	res.P90 = nearestRank(latencies, 0.90)
	res.P99 = nearestRank(latencies, 0.99)
	if res.Elapsed > 0 {
		res.Throughput = float64(res.Requests) / res.Elapsed.Seconds()
	}
	return res, nil
}

// nearestRank returns the ceil(p·N)-th smallest of sorted, the
// nearest-rank quantile definition.
func nearestRank(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(float64(len(sorted))*p)+0.9999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// submitResponse mirrors the web layer's JSON submit reply.
type submitResponse struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	CacheHit bool   `json:"cache_hit"`
	Err      string `json:"err"`
}

// oneRequest runs one full submit→done cycle, retrying shed
// submissions after the server's Retry-After and then waiting for the
// job's last event on its /jobs/{id}/events stream. It returns the
// end-to-end latency, whether the result came from the cache, and how
// many sheds it absorbed.
func oneRequest(ctx context.Context, client *http.Client, base string, body []byte, o LoadgenOptions) (lat time.Duration, cacheHit bool, shed int, err error) {
	ctx, cancel := context.WithTimeout(ctx, o.Timeout)
	defer cancel()
	begin := time.Now() //bce:wallclock per-request latency sample
	var sub submitResponse
	for {
		status, retryAfter, decodeErr := postJSON(ctx, client, base+"/api/run", body, &sub)
		if decodeErr != nil {
			return 0, false, shed, decodeErr
		}
		if status == http.StatusTooManyRequests {
			shed++
			select {
			case <-ctx.Done():
				return 0, false, shed, ctx.Err()
			case <-time.After(retryAfter): //bce:wallclock honoring the server's Retry-After
			}
			continue
		}
		if status != http.StatusOK && status != http.StatusAccepted {
			return 0, false, shed, fmt.Errorf("loadgen: submit status %d", status)
		}
		break
	}
	state := sub.State
	cacheHit = sub.CacheHit
	if !state.Terminal() {
		ev, err := lastEvent(ctx, client, base+"/jobs/"+sub.ID+"/events")
		if err != nil {
			return 0, false, shed, err
		}
		if !ev.State.Terminal() {
			return 0, false, shed, fmt.Errorf("loadgen: job %s's event stream ended while it was %s", sub.ID, ev.State)
		}
		state = ev.State
		cacheHit = cacheHit || ev.CacheHit
	}
	if state == StateFailed {
		return 0, false, shed, fmt.Errorf("loadgen: job failed")
	}
	return time.Since(begin), cacheHit, shed, nil //bce:wallclock load generator reports real HTTP latency, outside any emulation
}

func postJSON(ctx context.Context, client *http.Client, url string, body []byte, out any) (status int, retryAfter time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close() //bce:errok read-side close after full drain
	retryAfter = ParseRetryAfter(resp.Header.Get("Retry-After"))
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, retryAfter, err
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, retryAfter, fmt.Errorf("loadgen: bad response %q: %w", truncateBody(data), err)
		}
	}
	return resp.StatusCode, retryAfter, nil
}

// lastEvent reads a job's server-sent event stream to its end, which
// the server marks after the job's terminal event, and returns the
// last event it carried.
func lastEvent(ctx context.Context, client *http.Client, url string) (Event, error) {
	var last Event
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return last, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return last, err
	}
	defer resp.Body.Close() //bce:errok read-side close; nothing is written back
	if resp.StatusCode != http.StatusOK {
		return last, fmt.Errorf("loadgen: events status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return last, fmt.Errorf("loadgen: bad event %q: %w", truncateBody([]byte(data)), err)
		}
		last = ev
	}
	return last, sc.Err()
}

func truncateBody(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}
