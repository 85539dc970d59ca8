// Package web implements the paper's web interface to BCE (§4.3): a
// page where volunteers paste or upload their BOINC client_state.xml
// (or a JSON scenario), pick policy variants, and get back the figures
// of merit, the message log of scheduling decisions, and an SVG
// timeline — the workflow alpha testers used to hand reproducible
// scheduling problems to the BOINC developers. Uploads are kept on the
// server (paper: "the input files are saved on the server").
//
// Every request goes through the job service (internal/serve), which
// admits and runs sync and async requests alike: tiny form submissions
// keep the classic one-roundtrip UX, larger ones get a ticket and a
// /jobs/{id} progress page (poll, SSE, result fetch), and when the
// bounded queue is full the server sheds load with 429 + Retry-After
// instead of melting.
package web

import (
	"context"
	"errors"
	"fmt"
	"html/template"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"bce/internal/metrics"
	"bce/internal/population"
	"bce/internal/scenario"
	"bce/internal/serve"
)

// Server is the BCE web frontend. SaveDir, when nonempty, receives a
// copy of every uploaded scenario — including ones that fail to parse,
// which are exactly the uploads worth debugging.
type Server struct {
	SaveDir string
	MaxDays float64 // cap on emulation length (default 30)

	// SyncDays is the synchronous threshold: /run submissions at or
	// under this many emulated days (and /study submissions under
	// SyncScenarioDays scenario-days) complete in the request, larger
	// ones are submitted for a ticket — provided Start has been
	// called. Default 2.
	SyncDays float64

	// Svc is the job service backing every submission. Its RunTimeout
	// caps the wall-clock time of one emulation; the request context
	// is honored too, so an abandoned HTTP request stops its emulation
	// instead of burning CPU to completion.
	Svc *serve.Service

	mu    sync.Mutex
	saved int //bce:guardedby mu
}

// DefaultRunTimeout is the Svc.RunTimeout NewServer sets: it bounds one
// web-triggered emulation unless the caller overrides it.
const DefaultRunTimeout = 2 * time.Minute

// SyncScenarioDays is the /study synchronous budget: studies of at most
// this many scenario-days (scenarios × days each) run synchronously.
const SyncScenarioDays = 5.0

// NewServer returns a web frontend saving uploads to saveDir ("" =
// don't save). Async submissions need Start; without it every request
// is served synchronously.
func NewServer(saveDir string) *Server {
	svc := serve.New(serve.Config{})
	svc.RunTimeout = DefaultRunTimeout
	return &Server{
		SaveDir:  saveDir,
		MaxDays:  30,
		SyncDays: 2,
		Svc:      svc,
	}
}

// Start lets the service run submitted jobs under ctx; cancelling ctx
// stops them. Until Start is called, /run and /study are served
// synchronously and the async API responds 503.
func (s *Server) Start(ctx context.Context) {
	s.Svc.Start(ctx)
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.index)
	mux.HandleFunc("/run", s.run)
	mux.HandleFunc("/study", s.study)
	mux.HandleFunc("/jobs/", s.jobPages)
	mux.HandleFunc("/api/run", s.apiRun)
	mux.HandleFunc("/api/study", s.apiStudy)
	mux.HandleFunc("/api/jobs/", s.apiJobs)
	return mux
}

var indexTmpl = template.Must(template.New("index").Parse(`<!doctype html>
<html><head><title>BCE — BOINC client emulator</title>
<style>
 body { font-family: sans-serif; max-width: 56em; margin: 2em auto; }
 textarea { width: 100%; font-family: monospace; }
 label { display: inline-block; margin-right: 1.5em; }
</style></head>
<body>
<h1>BOINC client emulator</h1>
<p>Paste your <code>client_state.xml</code> (or a JSON scenario) below,
pick the scheduling policies, and the emulator will predict the client's
behaviour and report the figures of merit. Small requests come back
immediately; long emulations get a job ticket and a progress page.</p>
<form method="post" action="/run">
<textarea name="state" rows="16" placeholder="&lt;client_state&gt;...&lt;/client_state&gt;  or  {&quot;name&quot;: ...}"></textarea>
<p>
<label>job scheduling:
 <select name="sched">
  <option>JS-LOCAL</option><option>JS-GLOBAL</option><option>JS-WRR</option>
 </select></label>
<label>job fetch:
 <select name="fetch">
  <option>JF-HYSTERESIS</option><option>JF-ORIG</option>
 </select></label>
<label>days: <input name="days" value="10" size="4"></label>
<label>seed: <input name="seed" value="1" size="6"></label>
</p>
<p><input type="submit" value="Emulate"></p>
</form>
<h2>Population study</h2>
<p>Or sample a population of synthetic scenarios and compare the
standard policy combinations over all of them (paper §6.2).</p>
<form method="post" action="/study">
<label>scenarios: <input name="n" value="30" size="4"></label>
<label>days each: <input name="days" value="0.5" size="4"></label>
<label>seed: <input name="seed" value="1" size="6"></label>
<input type="submit" value="Run study">
</form>
</body></html>`))

var resultTmpl = template.Must(template.New("result").Parse(`<!doctype html>
<html><head><title>BCE result — {{.Name}}</title>
<style>
 body { font-family: sans-serif; max-width: 72em; margin: 2em auto; }
 table { border-collapse: collapse; }
 td, th { border: 1px solid #ccc; padding: 0.3em 0.8em; text-align: right; }
 th { background: #eee; }
 pre { background: #f7f7f7; padding: 1em; overflow-x: auto; max-height: 30em; }
 .notice { background: #fff5d6; border: 1px solid #e0c050; padding: 0.5em 1em; }
</style></head>
<body>
<h1>Emulation of “{{.Name}}”</h1>
{{range .Notices}}<p class="notice">⚠ {{.}}</p>
{{end}}<p>{{.NProjects}} project(s), {{.Days}} days, policies {{.Sched}} / {{.Fetch}}.</p>
<h2>Figures of merit</h2>
<table><tr>{{range .MetricNames}}<th>{{.}}</th>{{end}}</tr>
<tr>{{range .MetricValues}}<td>{{printf "%.4f" .}}</td>{{end}}</tr></table>
<p>{{.Jobs}} jobs completed ({{.Missed}} missed their deadline), {{.RPCs}} scheduler RPCs.</p>
<h2>Timeline</h2>
{{.SVG}}
<h2>Message log ({{.LogShown}} of {{.LogTotal}} lines)</h2>
<pre>{{.Log}}</pre>
<p><a href="/">run another scenario</a></p>
</body></html>`))

func (s *Server) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	indexTmpl.Execute(w, nil) //bce:errok headers are sent; a failed render only means the client hung up
}

// maxLogLines bounds the log excerpt shown on the result page.
const maxLogLines = 500

func (s *Server) run(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	scn, notices, err := s.upload(r.FormValue("state"), r.FormValue)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	req := serve.Request{Kind: serve.KindRun, Scenario: scn}
	if err := req.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.serveForm(w, r, req, scn.DurationDays > s.syncDays(), "reduce days", notices)
}

// upload is the one upload path behind the /run form and /api/run. It
// parses the uploaded scenario (JSON or client_state.xml), saves it,
// then applies the days (capped at MaxDays), seed, sched and fetch
// parameters that param returns. The notices name each value it could
// not use as given; the form shows them and the API drops them.
func (s *Server) upload(state string, param func(string) string) (*scenario.Scenario, []string, error) {
	state = strings.TrimSpace(state)
	if state == "" {
		return nil, nil, errors.New("no scenario supplied")
	}
	scn, err := parseUpload(state)
	// The stated purpose of saving uploads is debugging volunteer
	// inputs, and malformed uploads are exactly the ones worth
	// keeping — so save before rejecting, tagging parse failures.
	s.save(state, err == nil)
	if err != nil {
		return nil, nil, err
	}

	var notices []string
	requestedDays := scn.DurationDays
	if dstr := param("days"); dstr != "" {
		if v, perr := strconv.ParseFloat(dstr, 64); perr == nil && v > 0 {
			scn.DurationDays = v
			requestedDays = v
		} else {
			notices = append(notices, fmt.Sprintf("could not use requested days %q; kept the scenario's %g", dstr, scn.DurationDays))
		}
	}
	maxDays := s.MaxDays
	if maxDays <= 0 {
		maxDays = 30
	}
	switch {
	case scn.DurationDays > maxDays:
		scn.DurationDays = maxDays
		notices = append(notices, fmt.Sprintf("requested %g days exceeds this server's %g-day cap; emulated %g days instead", requestedDays, maxDays, maxDays))
	case scn.DurationDays <= 0:
		scn.DurationDays = maxDays
		notices = append(notices, fmt.Sprintf("requested duration %g is not positive; emulated the %g-day cap instead", requestedDays, maxDays))
	}
	if v, perr := strconv.ParseInt(param("seed"), 10, 64); perr == nil {
		scn.Seed = v
	}
	if p := param("sched"); p != "" {
		scn.Policies.JobSched = p
	}
	if p := param("fetch"); p != "" {
		scn.Policies.JobFetch = p
	}
	return scn, notices, nil
}

// cacheNotice marks a result page served from an earlier identical
// request's outcome.
const cacheNotice = "served from the result cache: an identical submission was emulated earlier"

// serveForm is the one path behind the /run and /study forms. A large
// request on a started service is submitted and redirected to its
// ticket page, so it does not hold this handler goroutine; anything
// else goes through Do and is rendered in the response. hint tells a
// user whose request timed out what to shrink.
func (s *Server) serveForm(w http.ResponseWriter, r *http.Request, req serve.Request, large bool, hint string, notices []string) {
	if large && s.Svc.Started() {
		view, err := s.Svc.Submit(req)
		if err != nil {
			s.serviceError(w, err)
			return
		}
		http.Redirect(w, r, "/jobs/"+view.ID, http.StatusSeeOther)
		return
	}
	out, cacheHit, err := s.Svc.Do(r.Context(), req)
	switch {
	case err == nil:
	case r.Context().Err() != nil:
		return // the client is gone; nobody is listening for the response
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, fmt.Sprintf("the request exceeded the server's %v limit; %s", s.Svc.RunTimeout, hint),
			http.StatusGatewayTimeout)
		return
	default:
		s.serviceError(w, err)
		return
	}
	if cacheHit {
		notices = append(notices, cacheNotice)
	}
	s.render(w, out, notices)
}

// render writes the result page for a finished outcome of either kind.
func (s *Server) render(w http.ResponseWriter, out *serve.Outcome, notices []string) {
	switch out.Kind {
	case serve.KindRun:
		s.renderRun(w, out, notices)
	case serve.KindStudy:
		s.renderStudy(w, out.Study, notices)
	default:
		http.Error(w, "unknown job kind", http.StatusInternalServerError)
	}
}

// renderRun writes the result page for a finished run outcome.
func (s *Server) renderRun(w http.ResponseWriter, out *serve.Outcome, notices []string) {
	scn := out.Scenario
	res := out.Result

	lines := strings.Split(out.Log, "\n")
	if n := len(lines); n > 0 && lines[n-1] == "" {
		lines = lines[:n-1] // the final newline is not an extra log line
	}
	total := len(lines)
	shown := total
	if shown > maxLogLines {
		shown = maxLogLines
	}
	logText := strings.Join(lines[:shown], "\n")
	if shown < total {
		logText += fmt.Sprintf("\n… truncated (%d more lines not shown)", total-shown)
	}
	if out.LogCap {
		logText += "\n… log capped on the server; line counts are lower bounds"
	}

	names := metrics.Names()
	data := struct {
		Name         string
		NProjects    int
		Days         float64
		Sched, Fetch string
		MetricNames  []string
		MetricValues []float64
		Jobs, Missed int
		RPCs         int
		SVG          template.HTML
		Log          string
		LogShown     int
		LogTotal     int
		Notices      []string
	}{
		Name:         scn.Name,
		NProjects:    len(scn.Projects),
		Days:         scn.DurationDays,
		Sched:        orDefault(scn.Policies.JobSched, "JS-LOCAL"),
		Fetch:        orDefault(scn.Policies.JobFetch, "JF-HYSTERESIS"),
		MetricNames:  names[:],
		MetricValues: func() []float64 { v := res.Metrics.Values(); return v[:] }(),
		Jobs:         res.Metrics.CompletedJobs,
		Missed:       res.Metrics.MissedJobs,
		RPCs:         res.Metrics.RPCs,
		SVG:          template.HTML(res.Timeline.SVG(1100, 16)),
		Log:          logText,
		LogShown:     shown,
		LogTotal:     total,
		Notices:      notices,
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	resultTmpl.Execute(w, data) //bce:errok headers are sent; a failed render only means the client hung up
}

var studyTmpl = template.Must(template.New("study").Parse(`<!doctype html>
<html><head><title>BCE population study</title>
<style>
 body { font-family: sans-serif; max-width: 72em; margin: 2em auto; }
 pre { background: #f7f7f7; padding: 1em; overflow-x: auto; }
 .notice { background: #fff5d6; border: 1px solid #e0c050; padding: 0.5em 1em; }
</style></head>
<body>
<h1>Population study</h1>
{{range .Notices}}<p class="notice">⚠ {{.}}</p>
{{end}}<p>{{.N}} sampled scenarios of {{.Days}} days each, seed {{.Seed}}.</p>
<h2>Population means (95% CI)</h2>
<pre>{{.Table}}</pre>
<h2>share_violation quantiles</h2>
<pre>{{.Quantiles}}</pre>
<h2>Paired wins</h2>
<pre>{{.Wins}}</pre>
<p><a href="/">back</a></p>
</body></html>`))

// Caps on web-triggered studies: each cell is a full emulation, so the
// request must stay a small multiple of a single /run.
const (
	maxStudyScenarios = 200
	maxStudyDays      = 2.0
)

// studyParams parses and clamps the study form fields, reporting every
// clamp as a user-visible notice — the page must not silently present
// results for a smaller study than the one requested.
func studyParams(nStr, daysStr, seedStr string) (n int, days float64, seed int64, notices []string) {
	n, days, seed = 30, 0.5, 1
	if v, err := strconv.Atoi(nStr); err == nil && v > 0 {
		n = v
	}
	if n > maxStudyScenarios {
		notices = append(notices, fmt.Sprintf("requested %d scenarios exceeds this server's cap; ran %d", n, maxStudyScenarios))
		n = maxStudyScenarios
	}
	if v, err := strconv.ParseFloat(daysStr, 64); err == nil && v > 0 {
		days = v
	}
	if days > maxStudyDays {
		notices = append(notices, fmt.Sprintf("requested %g days per scenario exceeds this server's cap; ran %g", days, maxStudyDays))
		days = maxStudyDays
	}
	if v, err := strconv.ParseInt(seedStr, 10, 64); err == nil {
		seed = v
	}
	return n, days, seed, notices
}

// study runs a small streaming population study (paper §6.2): through
// a ticket when it is large and the service is started, else in the
// request.
func (s *Server) study(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	n, days, seed, notices := studyParams(r.FormValue("n"), r.FormValue("days"), r.FormValue("seed"))
	req := serve.Request{Kind: serve.KindStudy, StudyScenarios: n, StudyDays: days, StudySeed: seed}
	s.serveForm(w, r, req, float64(n)*days > SyncScenarioDays, "reduce scenarios or days", notices)
}

// renderStudy writes the study page for a finished study outcome.
func (s *Server) renderStudy(w http.ResponseWriter, st *population.Study, notices []string) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	//bce:errok headers are sent; a failed render only means the client hung up
	studyTmpl.Execute(w, struct {
		N                      int
		Days                   float64
		Seed                   int64
		Table, Quantiles, Wins string
		Notices                []string
	}{st.Target, st.Population.DurationDays, st.Seed,
		st.Table(), st.QuantileTable(2), st.WinsTable(2) + "\n" + st.WinsTable(4), notices})
}

// syncDays returns the effective synchronous threshold.
func (s *Server) syncDays() float64 {
	if s.SyncDays > 0 {
		return s.SyncDays
	}
	return 2
}

// serviceError maps Submit and Do errors to responses: a full queue is
// 429 plus the service's queue-drain estimate as Retry-After.
func (s *Server) serviceError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, serve.ErrQueueFull):
		ra := s.Svc.RetryAfter()
		w.Header().Set("Retry-After", strconv.Itoa(int(ra.Seconds())))
		http.Error(w, fmt.Sprintf("server is at capacity; retry in ~%v", ra), http.StatusTooManyRequests)
	case errors.Is(err, serve.ErrNotStarted):
		http.Error(w, "job queue not running", http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// parseUpload accepts either a client_state.xml or a JSON scenario.
func parseUpload(state string) (*scenario.Scenario, error) {
	if strings.HasPrefix(state, "{") {
		return scenario.Load(strings.NewReader(state))
	}
	if strings.Contains(state, "<client_state") {
		return scenario.ImportClientState(strings.NewReader(state))
	}
	return nil, fmt.Errorf("input is neither a JSON scenario nor a client_state.xml")
}

// save writes the upload to SaveDir for later debugging (the paper's
// "input files are saved on the server"). Uploads that failed to parse
// are saved too — tagged, because volunteer-submitted inputs the
// importer chokes on are the most valuable ones to keep.
func (s *Server) save(state string, parsedOK bool) {
	if s.SaveDir == "" {
		return
	}
	s.mu.Lock()
	s.saved++
	n := s.saved
	s.mu.Unlock()
	tag := ""
	if !parsedOK {
		tag = "_badparse"
	}
	//bce:wallclock uploaded state files are stamped with real receipt time
	name := fmt.Sprintf("upload_%s_%04d%s.txt", time.Now().UTC().Format("20060102T150405"), n, tag)
	//bce:errok both drops below: saving uploads is best-effort debugging aid, never worth failing the request
	_ = os.MkdirAll(s.SaveDir, 0o755)
	_ = os.WriteFile(filepath.Join(s.SaveDir, name), []byte(state), 0o644) //bce:errok see above
}

// Runs reports how many emulations/studies the server has actually
// executed (cache hits excluded).
func (s *Server) Runs() int {
	return s.Svc.Stats().Runs
}

func orDefault(v, d string) string {
	if v == "" {
		return d
	}
	return v
}
