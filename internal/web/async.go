package web

import (
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"io"
	"net/http"
	"strconv"
	"strings"

	"bce/internal/metrics"
	"bce/internal/serve"
)

// maxUploadBytes bounds an /api/run request body.
const maxUploadBytes = 8 << 20

var jobTmpl = template.Must(template.New("job").Parse(`<!doctype html>
<html><head><title>BCE job {{.ID}}</title>
{{if not .Terminal}}<meta http-equiv="refresh" content="3">{{end}}
<style>
 body { font-family: sans-serif; max-width: 56em; margin: 2em auto; }
 .state { font-size: 1.3em; }
 .failed { color: #a00; }
 progress { width: 100%; }
</style></head>
<body>
<h1>Job {{.ID}}</h1>
<p class="state{{if .Failed}} failed{{end}}">state: <b id="state">{{.State}}</b></p>
{{if .Err}}<p class="failed">{{.Err}}</p>{{end}}
{{if .Total}}<p><progress id="bar" max="{{.Total}}" value="{{.Done}}"></progress>
<span id="count">{{.Done}}/{{.Total}}</span> scenarios</p>{{end}}
{{if .Queued}}<p>{{.QueuePos}} job(s) ahead in the queue.</p>{{end}}
{{if .Done2}}<p><a href="/jobs/{{.ID}}/result">view result</a></p>{{end}}
{{if not .Terminal}}
<script>
const es = new EventSource("/jobs/{{.ID}}/events");
es.onmessage = (m) => {
  const ev = JSON.parse(m.data);
  document.getElementById("state").textContent = ev.state;
  const bar = document.getElementById("bar");
  if (bar && ev.total) { bar.max = ev.total; bar.value = ev.done || 0;
    document.getElementById("count").textContent = (ev.done||0) + "/" + ev.total; }
  if (ev.state === "done") { es.close(); location.href = "/jobs/{{.ID}}/result"; }
  if (ev.state === "failed") { es.close(); location.reload(); }
};
</script>
{{end}}
<p><a href="/">back</a></p>
</body></html>`))

// jobPages serves the human-facing job routes:
//
//	/jobs/{id}         — status page (meta-refresh + SSE auto-advance)
//	/jobs/{id}/result  — rendered result once done
//	/jobs/{id}/events  — server-sent progress events
func (s *Server) jobPages(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" {
		http.NotFound(w, r)
		return
	}
	switch sub {
	case "":
		s.jobStatus(w, r, id)
	case "result":
		s.jobResult(w, r, id)
	case "events":
		s.jobEvents(w, r, id)
	default:
		http.NotFound(w, r)
	}
}

func (s *Server) jobStatus(w http.ResponseWriter, r *http.Request, id string) {
	v, err := s.Svc.Job(id)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	if v.State == serve.StateDone {
		http.Redirect(w, r, "/jobs/"+v.ID+"/result", http.StatusSeeOther)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	//bce:errok headers are sent; a failed render only means the client hung up
	jobTmpl.Execute(w, struct {
		ID       string
		State    serve.State
		Err      string
		Done     int
		Total    int
		QueuePos int
		Queued   bool
		Failed   bool
		Done2    bool
		Terminal bool
	}{v.ID, v.State, v.Err, v.Done, v.Total, v.QueuePos,
		v.State == serve.StateQueued, v.State == serve.StateFailed,
		v.State == serve.StateDone, v.State.Terminal()})
}

func (s *Server) jobResult(w http.ResponseWriter, r *http.Request, id string) {
	out, finished, err := s.Svc.Outcome(id)
	if err != nil && out == nil && !finished {
		http.NotFound(w, r)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if !finished {
		http.Redirect(w, r, "/jobs/"+id, http.StatusSeeOther)
		return
	}
	var notices []string
	if v, verr := s.Svc.Job(id); verr == nil && v.CacheHit {
		notices = append(notices, cacheNotice)
	}
	s.render(w, out, notices)
}

// jobEvents streams a job's progress as server-sent events. The stream
// ends when the job reaches a terminal state or the client goes away.
func (s *Server) jobEvents(w http.ResponseWriter, r *http.Request, id string) {
	ch, cancel, err := s.Svc.Watch(id)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	defer cancel()
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-ch:
			if !open {
				return
			}
			data, merr := json.Marshal(ev)
			if merr != nil {
				continue
			}
			fmt.Fprintf(w, "data: %s\n\n", data) //bce:errok a failed write only means the client hung up
			flusher.Flush()
		}
	}
}

// submitReply is the JSON body of /api/run and /api/study responses.
type submitReply struct {
	ID       string      `json:"id"`
	State    serve.State `json:"state"`
	CacheHit bool        `json:"cache_hit"`
	Err      string      `json:"err,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //bce:errok headers are sent; a failed write only means the client hung up
}

// submitJSON runs a validated request through Submit and writes the
// machine-facing reply: 200 for an immediately-done (cached) job, 202
// for an accepted ticket, 429 + Retry-After when shedding, 503 when
// the pool is not running.
func (s *Server) submitJSON(w http.ResponseWriter, req serve.Request) {
	view, err := s.Svc.Submit(req)
	switch {
	case errors.Is(err, serve.ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(int(s.Svc.RetryAfter().Seconds())))
		writeJSON(w, http.StatusTooManyRequests, submitReply{Err: "queue full"})
		return
	case errors.Is(err, serve.ErrNotStarted):
		writeJSON(w, http.StatusServiceUnavailable, submitReply{Err: "job queue not running"})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, submitReply{Err: err.Error()})
		return
	}
	status := http.StatusAccepted
	if view.State.Terminal() {
		status = http.StatusOK
	}
	writeJSON(w, status, submitReply{ID: view.ID, State: view.State, CacheHit: view.CacheHit})
}

// apiRun is the machine-facing submission endpoint: the body is a JSON
// scenario or client_state.xml, query parameters days/seed/sched/fetch
// override the scenario the same way the form does (with the same
// caps), and the reply is a job ticket to poll at /api/jobs/{id}.
func (s *Server) apiRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxUploadBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, submitReply{Err: "reading body: " + err.Error()})
		return
	}
	scn, _, err := s.upload(string(body), r.URL.Query().Get)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, submitReply{Err: err.Error()})
		return
	}
	s.submitJSON(w, serve.Request{Kind: serve.KindRun, Scenario: scn})
}

// apiStudy submits a population study: query parameters n/days/seed,
// same caps as the form.
func (s *Server) apiStudy(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	n, days, seed, _ := studyParams(q.Get("n"), q.Get("days"), q.Get("seed"))
	s.submitJSON(w, serve.Request{Kind: serve.KindStudy, StudyScenarios: n, StudyDays: days, StudySeed: seed})
}

// apiJobs serves the machine-facing job routes:
//
//	/api/jobs/{id}         — JobView JSON snapshot
//	/api/jobs/{id}/result  — result payload as JSON once done
func (s *Server) apiJobs(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/api/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" {
		http.NotFound(w, r)
		return
	}
	switch sub {
	case "":
		v, err := s.Svc.Job(id)
		if err != nil {
			writeJSON(w, http.StatusNotFound, submitReply{Err: "unknown job"})
			return
		}
		writeJSON(w, http.StatusOK, v)
	case "result":
		s.apiJobResult(w, id)
	default:
		http.NotFound(w, r)
	}
}

// runResultJSON is the machine-facing payload of a finished run.
type runResultJSON struct {
	Name    string             `json:"name"`
	Days    float64            `json:"days"`
	Sched   string             `json:"sched"`
	Fetch   string             `json:"fetch"`
	Metrics map[string]float64 `json:"metrics"`
	Jobs    int                `json:"jobs"`
	Missed  int                `json:"missed"`
	RPCs    int                `json:"rpcs"`
}

// studyResultJSON is the machine-facing payload of a finished study.
type studyResultJSON struct {
	Scenarios int     `json:"scenarios"`
	Days      float64 `json:"days"`
	Seed      int64   `json:"seed"`
	Table     string  `json:"table"`
}

func (s *Server) apiJobResult(w http.ResponseWriter, id string) {
	out, finished, err := s.Svc.Outcome(id)
	if err != nil && out == nil && !finished {
		writeJSON(w, http.StatusNotFound, submitReply{Err: "unknown job"})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, submitReply{Err: err.Error()})
		return
	}
	if !finished {
		v, verr := s.Svc.Job(id)
		if verr != nil {
			writeJSON(w, http.StatusNotFound, submitReply{Err: "unknown job"})
			return
		}
		writeJSON(w, http.StatusConflict, v)
		return
	}
	switch out.Kind {
	case serve.KindRun:
		names := metrics.Names()
		vals := out.Result.Metrics.Values()
		m := make(map[string]float64, len(names))
		for i, n := range names {
			m[n] = vals[i]
		}
		writeJSON(w, http.StatusOK, runResultJSON{
			Name:    out.Scenario.Name,
			Days:    out.Scenario.DurationDays,
			Sched:   orDefault(out.Scenario.Policies.JobSched, "JS-LOCAL"),
			Fetch:   orDefault(out.Scenario.Policies.JobFetch, "JF-HYSTERESIS"),
			Metrics: m,
			Jobs:    out.Result.Metrics.CompletedJobs,
			Missed:  out.Result.Metrics.MissedJobs,
			RPCs:    out.Result.Metrics.RPCs,
		})
	case serve.KindStudy:
		writeJSON(w, http.StatusOK, studyResultJSON{
			Scenarios: out.Study.Target,
			Days:      out.Study.Population.DurationDays,
			Seed:      out.Study.Seed,
			Table:     out.Study.Table(),
		})
	default:
		writeJSON(w, http.StatusInternalServerError, submitReply{Err: "unknown job kind"})
	}
}
