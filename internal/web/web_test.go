package web

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const jsonScenario = `{
  "name": "web-test",
  "duration_days": 0.5,
  "seed": 1,
  "host": {"ncpu": 1, "cpu_gflops": 1, "min_queue_hours": 0.5, "max_queue_hours": 1},
  "projects": [
    {"name": "p", "share": 100, "apps": [
      {"name": "a", "ncpus": 1, "mean_secs": 600, "latency_secs": 86400}
    ]}
  ],
  "policies": {}
}`

const xmlState = `<client_state>
  <host_info><p_ncpus>1</p_ncpus><p_fpops>1e9</p_fpops><m_nbytes>4e9</m_nbytes></host_info>
  <project><master_url>http://x/</master_url><project_name>X</project_name><resource_share>100</resource_share></project>
</client_state>`

func post(t *testing.T, h http.Handler, form url.Values) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/run", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func TestIndexPage(t *testing.T) {
	h := NewServer("").Handler()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/", nil))
	if rr.Code != 200 {
		t.Fatalf("index status %d", rr.Code)
	}
	body := rr.Body.String()
	for _, want := range []string{"client_state", "JS-LOCAL", "JF-HYSTERESIS", "<form"} {
		if !strings.Contains(body, want) {
			t.Fatalf("index missing %q", want)
		}
	}
}

func TestNotFound(t *testing.T) {
	h := NewServer("").Handler()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/nope", nil))
	if rr.Code != 404 {
		t.Fatalf("status %d, want 404", rr.Code)
	}
}

func TestRunJSONScenario(t *testing.T) {
	s := NewServer("")
	rr := post(t, s.Handler(), url.Values{
		"state": {jsonScenario},
		"sched": {"JS-LOCAL"},
		"fetch": {"JF-HYSTERESIS"},
		"days":  {"0.25"},
		"seed":  {"7"},
	})
	if rr.Code != 200 {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	body := rr.Body.String()
	for _, want := range []string{"Figures of merit", "web-test", "<svg", "jobs completed", "start "} {
		if !strings.Contains(body, want) {
			t.Fatalf("result missing %q", want)
		}
	}
	if s.Runs() != 1 {
		t.Fatalf("Runs() = %d, want 1", s.Runs())
	}
}

func TestRunXMLState(t *testing.T) {
	s := NewServer("")
	rr := post(t, s.Handler(), url.Values{
		"state": {xmlState},
		"days":  {"0.25"},
	})
	if rr.Code != 200 {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	if !strings.Contains(rr.Body.String(), "imported") {
		t.Fatal("imported scenario name missing")
	}
}

func TestRunRejectsGarbage(t *testing.T) {
	s := NewServer("")
	rr := post(t, s.Handler(), url.Values{"state": {"hello"}})
	if rr.Code != 400 {
		t.Fatalf("garbage got status %d, want 400", rr.Code)
	}
	rr = post(t, s.Handler(), url.Values{})
	if rr.Code != 400 {
		t.Fatalf("empty got status %d, want 400", rr.Code)
	}
}

func TestRunRejectsGET(t *testing.T) {
	s := NewServer("")
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/run", nil))
	if rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /run status %d", rr.Code)
	}
}

func TestDurationCapped(t *testing.T) {
	s := NewServer("")
	s.MaxDays = 1
	rr := post(t, s.Handler(), url.Values{
		"state": {jsonScenario},
		"days":  {"10000"},
	})
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), " 1 days") {
		t.Fatal("duration not capped to MaxDays")
	}
}

func TestUploadsSaved(t *testing.T) {
	dir := t.TempDir()
	s := NewServer(dir)
	rr := post(t, s.Handler(), url.Values{
		"state": {jsonScenario},
		"days":  {"0.25"},
	})
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("saved uploads = %v (%v), want 1 file", entries, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, entries[0].Name()))
	if err != nil || !strings.Contains(string(data), "web-test") {
		t.Fatal("saved upload content wrong")
	}
}

// An abandoned request (canceled context) must stop the emulation and
// write no response body.
func TestRunAbandonedRequest(t *testing.T) {
	srv := NewServer("")
	h := srv.Handler()
	form := url.Values{"state": {jsonScenario}, "days": {"30"}}
	req := httptest.NewRequest("POST", "/run", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	ctx, cancel := context.WithCancel(req.Context())
	cancel() // the volunteer closed the tab before the run began
	rr := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		h.ServeHTTP(rr, req.WithContext(ctx))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("handler kept emulating after the request was abandoned")
	}
	if rr.Body.Len() != 0 {
		t.Fatalf("abandoned request wrote a response: %q", rr.Body.String())
	}
	if srv.Runs() != 0 {
		t.Fatal("abandoned request counted as a completed run")
	}
}

func TestStudyEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation-heavy")
	}
	s := NewServer("")
	req := httptest.NewRequest("POST", "/study", strings.NewReader(url.Values{
		"n":    {"3"},
		"days": {"0.2"},
		"seed": {"5"},
	}.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	if rr.Code != 200 {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	body := rr.Body.String()
	for _, want := range []string{"3 sampled scenarios", "Population means", "JS-LOCAL/JF-ORIG", "paired wins", "quantiles"} {
		if !strings.Contains(body, want) {
			t.Fatalf("study page missing %q:\n%s", want, body)
		}
	}
	if s.Runs() != 1 {
		t.Fatalf("Runs() = %d, want 1", s.Runs())
	}
}

func TestStudyRejectsGET(t *testing.T) {
	rr := httptest.NewRecorder()
	NewServer("").Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/study", nil))
	if rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /study status %d", rr.Code)
	}
}

// The scenario and duration caps bound a web-triggered study even when
// the form asks for more.
func TestStudyCapsInputs(t *testing.T) {
	n, days, seed, notices := studyParams("999999", "50", "9")
	if n != maxStudyScenarios || days != maxStudyDays || seed != 9 {
		t.Fatalf("params = %d/%g/%d, want clamped to %d/%g/9", n, days, seed, maxStudyScenarios, maxStudyDays)
	}
	// Clamping must be reported, not silent (one notice per clamp).
	if len(notices) != 2 {
		t.Fatalf("notices = %q, want one per clamped field", notices)
	}
	n, days, seed, notices = studyParams("", "-3", "junk")
	if n != 30 || days != 0.5 || seed != 1 {
		t.Fatalf("defaults = %d/%g/%d, want 30/0.5/1", n, days, seed)
	}
	if len(notices) != 0 {
		t.Fatalf("defaults produced notices %q", notices)
	}
}

// A run that exceeds the server-side wall-clock cap gets a 504.
func TestRunTimeout(t *testing.T) {
	srv := NewServer("")
	srv.MaxDays = 100000
	srv.Svc.RunTimeout = time.Millisecond
	rr := post(t, srv.Handler(), url.Values{"state": {jsonScenario}, "days": {"100000"}})
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "limit") {
		t.Fatalf("timeout message missing: %q", rr.Body.String())
	}
}
