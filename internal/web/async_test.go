package web

import (
	"os"
	"regexp"
	"strconv"

	"bce/internal/scenario"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"bce/internal/runner"
	"bce/internal/serve"
)

// startedServer returns a Server whose service is started, and an
// httptest server in front of it. A nil cfg keeps the default service.
func startedServer(t *testing.T, cfg *serve.Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer("")
	if cfg != nil {
		s.Svc = serve.New(*cfg)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func apiSubmit(t *testing.T, ts *httptest.Server, scn string, query string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/run"+query, "application/json", strings.NewReader(scn))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding submit reply: %v", err)
	}
	return resp, body
}

func pollDone(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/api/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v serve.JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.State.Terminal() {
			if v.State != serve.StateDone {
				t.Fatalf("job %s failed: %s", id, v.Err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Full async ticket flow over HTTP: submit through the API, poll the
// job to completion, fetch the JSON result.
func TestAPIEnqueuePollResult(t *testing.T) {
	_, ts := startedServer(t, nil)
	resp, body := apiSubmit(t, ts, jsonScenario, "?seed=11")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d body %v, want 202", resp.StatusCode, body)
	}
	id, _ := body["id"].(string)
	if id == "" {
		t.Fatalf("no ticket in %v", body)
	}
	pollDone(t, ts, id)

	res, err := http.Get(ts.URL + "/api/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("result status %d", res.StatusCode)
	}
	var rr runResultJSON
	if err := json.NewDecoder(res.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.Name != "web-test" || len(rr.Metrics) == 0 {
		t.Fatalf("result = %+v", rr)
	}
}

// Submitting a byte-identical scenario twice must not emulate twice:
// the second submission is served from the content-addressed cache.
func TestAPICacheHitSkipsEmulation(t *testing.T) {
	s, ts := startedServer(t, nil)
	resp, body := apiSubmit(t, ts, jsonScenario, "?seed=21")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status %d", resp.StatusCode)
	}
	pollDone(t, ts, body["id"].(string))
	if got := s.Runs(); got != 1 {
		t.Fatalf("after first run: Runs() = %d, want 1", got)
	}

	resp2, body2 := apiSubmit(t, ts, jsonScenario, "?seed=21")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached submit status %d, want 200", resp2.StatusCode)
	}
	if hit, _ := body2["cache_hit"].(bool); !hit {
		t.Fatalf("second submit not marked cache_hit: %v", body2)
	}
	if got := s.Runs(); got != 1 {
		t.Fatalf("identical resubmission re-emulated: Runs() = %d, want 1", got)
	}
	// The cached job's result is immediately fetchable.
	res, err := http.Get(ts.URL + "/api/jobs/" + body2["id"].(string) + "/result")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("cached result status %d", res.StatusCode)
	}
}

// The form flow also hits the cache: same scenario twice through /run
// (sync path), second render carries the cache notice.
func TestFormCacheHit(t *testing.T) {
	s := NewServer("")
	h := s.Handler()
	form := url.Values{"state": {jsonScenario}, "days": {"0.25"}, "seed": {"31"}}
	if rr := post(t, h, form); rr.Code != 200 {
		t.Fatalf("first run status %d", rr.Code)
	}
	rr := post(t, h, form)
	if rr.Code != 200 {
		t.Fatalf("second run status %d", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "result cache") {
		t.Fatal("cache hit not surfaced on the result page")
	}
	if s.Runs() != 1 {
		t.Fatalf("Runs() = %d, want 1 (second request must come from cache)", s.Runs())
	}
}

// /api/run and the /run form share one upload path: the same body and
// parameters sent to the API and then to the form build the same
// request, so the form's run is a cache hit.
func TestAPIAndFormShareUploadPath(t *testing.T) {
	s, ts := startedServer(t, nil)
	resp, body := apiSubmit(t, ts, jsonScenario, "?days=0.25&seed=41&sched=JS-WRR&fetch=JF-HYSTERESIS")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d body %v, want 202", resp.StatusCode, body)
	}
	pollDone(t, ts, body["id"].(string))

	form := url.Values{"state": {jsonScenario}, "days": {"0.25"}, "seed": {"41"}, "sched": {"JS-WRR"}, "fetch": {"JF-HYSTERESIS"}}
	rr := post(t, s.Handler(), form)
	if rr.Code != 200 {
		t.Fatalf("form status %d", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), cacheNotice) {
		t.Fatal("the form's run of the API's upload is not a cache hit")
	}
	if got := s.Runs(); got != 1 {
		t.Fatalf("Runs() = %d, want 1", got)
	}
}

// A saturated queue sheds with 429 and a Retry-After estimate.
func TestAPIQueueFullSheds(t *testing.T) {
	s, ts := startedServer(t, &serve.Config{Batch: runner.Options{Workers: 1}, QueueCap: 1})
	// Submissions long enough that the single worker cannot drain the
	// one-slot queue while we flood it (the pool's context cancels the
	// oversized runs at test cleanup).
	s.MaxDays = 1e6
	shed := false
	var last *http.Response
	for i := 0; i < 25 && !shed; i++ {
		resp, _ := apiSubmit(t, ts, jsonScenario, fmt.Sprintf("?seed=%d&days=1000000", 100+i))
		if resp.StatusCode == http.StatusTooManyRequests {
			shed = true
			last = resp
		}
	}
	if !shed {
		t.Fatal("25 submissions into a 1-worker/1-slot service never shed")
	}
	ra := last.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After")
	}
	var secs int
	if _, err := fmt.Sscanf(ra, "%d", &secs); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer seconds >= 1", ra)
	}
}

// The form flow redirects large submissions to a job page and serves
// the rendered result from it once done.
func TestFormAsyncRedirect(t *testing.T) {
	s := NewServer("")
	s.SyncDays = 0.1 // force the async path for a 0.25-day run
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.PostForm(ts.URL+"/run", url.Values{
		"state": {jsonScenario}, "days": {"0.25"}, "seed": {"41"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSeeOther {
		t.Fatalf("submit status %d, want 303", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	if !strings.HasPrefix(loc, "/jobs/") {
		t.Fatalf("redirect to %q, want /jobs/{id}", loc)
	}
	id := strings.TrimPrefix(loc, "/jobs/")
	pollDone(t, ts, id)

	// The status page of a done job redirects to the result.
	resp, err = client.Get(ts.URL + loc)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSeeOther || resp.Header.Get("Location") != loc+"/result" {
		t.Fatalf("done-job status page: %d -> %q", resp.StatusCode, resp.Header.Get("Location"))
	}
	res, err := http.Get(ts.URL + loc + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	buf := new(strings.Builder)
	if _, err := fmt.Fprint(buf, readAll(t, res)); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{"Figures of merit", "web-test", "<svg"} {
		if !strings.Contains(body, want) {
			t.Fatalf("async result page missing %q", want)
		}
	}
}

// The SSE endpoint frames job events as text/event-stream and ends at
// the terminal state.
func TestSSEProgress(t *testing.T) {
	_, ts := startedServer(t, nil)
	resp, body := apiSubmit(t, ts, jsonScenario, "?seed=51")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	id := body["id"].(string)

	// Subscribe while the job may still be live: the stream must carry
	// events until the terminal one, then end.
	res, err := http.Get(ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	stream := readAll(t, res)
	if !strings.Contains(stream, "data: {") {
		t.Fatalf("no SSE data frames in %q", stream)
	}
	if !strings.Contains(stream, `"state":"done"`) {
		t.Fatalf("stream ended without a done event: %q", stream)
	}
}

// Unknown tickets are 404s on every job route.
func TestUnknownJob(t *testing.T) {
	_, ts := startedServer(t, nil)
	for _, path := range []string{"/jobs/nope", "/jobs/nope/result", "/jobs/nope/events", "/api/jobs/nope", "/api/jobs/nope/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s status %d, want 404", path, resp.StatusCode)
		}
	}
}

// The study form goes async past the scenario-day budget and renders
// from the job outcome.
func TestStudyAsync(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation-heavy")
	}
	s, ts := startedServer(t, nil)
	_ = s
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	// 4 scenarios × 2 days = 8 scenario-days > the 5-day sync budget.
	resp, err := client.PostForm(ts.URL+"/study", url.Values{
		"n": {"4"}, "days": {"2"}, "seed": {"6"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSeeOther {
		t.Fatalf("study submit status %d, want 303", resp.StatusCode)
	}
	id := strings.TrimPrefix(resp.Header.Get("Location"), "/jobs/")
	pollDone(t, ts, id)
	res, err := http.Get(ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body := readAll(t, res)
	for _, want := range []string{"4 sampled scenarios", "Population means"} {
		if !strings.Contains(body, want) {
			t.Fatalf("async study page missing %q", want)
		}
	}
}

// Loadgen smoke: drive an in-process server end to end and check the
// accounting adds up.
func TestLoadgenSmoke(t *testing.T) {
	_, ts := startedServer(t, nil)
	res, err := serve.Loadgen(context.Background(), serve.LoadgenOptions{
		URL: ts.URL, Requests: 8, Concurrency: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 8 || res.Failed != 0 {
		t.Fatalf("loadgen result %+v, want 8 completed / 0 failed", res)
	}
	if res.P50 <= 0 || res.P99 < res.P50 || res.Throughput <= 0 {
		t.Fatalf("implausible latency stats %+v", res)
	}
	if !strings.Contains(res.Table(), "throughput") {
		t.Fatal("Table() missing throughput line")
	}

	// Identical mode hammers the cache: at most one real emulation.
	res2, err := serve.Loadgen(context.Background(), serve.LoadgenOptions{
		URL: ts.URL, Requests: 6, Concurrency: 2, Identical: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Requests != 6 || res2.CacheHits < 4 {
		t.Fatalf("identical-mode result %+v, want most completions cached", res2)
	}
}

func readAll(t *testing.T, res *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := res.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// The log excerpt header must report real line counts — not a fixed
// "first 500 lines" — and a longer log must end with an explicit
// truncation marker instead of silently dropping the remainder.
func TestLogExcerptCounts(t *testing.T) {
	s := NewServer("")
	rr := post(t, s.Handler(), url.Values{
		"state": {jsonScenario}, "days": {"0.25"}, "seed": {"61"},
	})
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	body := rr.Body.String()
	if strings.Contains(body, "first 500 lines") {
		t.Fatal("result page still claims a fixed 500-line excerpt")
	}
	m := regexp.MustCompile(`Message log \((\d+) of (\d+) lines\)`).FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("no line-count header in result page")
	}
	shown, total := m[1], m[2]
	if shown != total {
		t.Fatalf("short log reports %s of %s lines", shown, total)
	}
	if strings.Contains(body, "truncated") {
		t.Fatal("short log carries a truncation marker")
	}

	// A log longer than the excerpt cap must say so explicitly.
	out, _, err := s.Svc.Do(context.Background(), serve.Request{
		Kind: serve.KindRun, Scenario: mustParse(t, jsonScenario, "62"),
	})
	if err != nil {
		t.Fatal(err)
	}
	long := *out
	long.Log = strings.Repeat("line\n", 777)
	rec := httptest.NewRecorder()
	s.renderRun(rec, &long, nil)
	page := rec.Body.String()
	if !strings.Contains(page, "(500 of 777 lines)") {
		t.Fatalf("long log header wrong: %s",
			regexp.MustCompile(`Message log [^<]*`).FindString(page))
	}
	if !strings.Contains(page, "truncated (277 more lines not shown)") {
		t.Fatal("long log missing the explicit truncation marker")
	}
}

// Clamped parameters must surface as notices on the rendered page.
func TestClampNoticeRendered(t *testing.T) {
	s := NewServer("")
	s.MaxDays = 1
	rr := post(t, s.Handler(), url.Values{
		"state": {jsonScenario}, "days": {"10000"},
	})
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	body := rr.Body.String()
	if !strings.Contains(body, "1-day cap") || !strings.Contains(body, "10000") {
		t.Fatal("day clamp not reported on the result page")
	}
}

// Uploads that fail to parse are saved too, tagged _badparse.
func TestBadParseUploadSaved(t *testing.T) {
	dir := t.TempDir()
	s := NewServer(dir)
	rr := post(t, s.Handler(), url.Values{"state": {"<client_state>not xml"}})
	if rr.Code != 400 {
		t.Fatalf("status %d, want 400", rr.Code)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("saved = %v (%v), want the failed upload kept", entries, err)
	}
	if !strings.Contains(entries[0].Name(), "_badparse") {
		t.Fatalf("failed upload %q not tagged _badparse", entries[0].Name())
	}
}

func mustParse(t *testing.T, state, seed string) *scenario.Scenario {
	t.Helper()
	scn, err := parseUpload(state)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := strconv.ParseInt(seed, 10, 64); err == nil {
		scn.Seed = v
	}
	return scn
}
