// The coordinator: owns the shard table, grants time-limited leases,
// collects reported shard aggregates, and merges them when the last
// one lands. Crash tolerance is persistence plus laziness — the spec
// and every reported shard go to disk as they arrive, leases expire by
// timestamp comparison at the next request (no timers), so a restarted
// coordinator reconstructs everything it needs from its directory and
// the workers' own retries. It holds its idle shards back for one lease
// TTL after such a restart, so a worker still folding one renews it
// before anyone else is granted it.
package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"bce/internal/population"
	"bce/internal/serve"
)

// DefaultLeaseTTL is how long a granted shard stays reserved without a
// progress renewal. Workers renew after every folded batch, so a live
// worker outruns this by orders of magnitude; only a dead one lets it
// lapse.
const DefaultLeaseTTL = 30 * time.Second

// maxBodyBytes bounds request bodies (a full shard report is aggregate
// state, O(combos), well under a megabyte even with generous sketches).
const maxBodyBytes = 32 << 20

// specFileName is the spec's file name inside the coordinator dir.
const specFileName = "spec.json"

// shard lease states.
const (
	shardIdle = iota
	shardLeased
	shardDone
)

type shardState struct {
	state   int
	worker  string            // leaseholder (state == shardLeased)
	expires time.Time         // lease deadline (state == shardLeased)
	done    int               // scenarios folded, per last progress report
	study   *population.Study // the reported aggregates (state == shardDone)
}

// CoordinatorOptions tunes a Coordinator.
type CoordinatorOptions struct {
	// Dir is where the coordinator persists its spec and every
	// reported shard (shard-NNN.json), making it restartable: a new
	// coordinator pointed at the same dir verifies the spec matches and
	// adopts already-reported shards. Required.
	Dir string
	// LeaseTTL overrides DefaultLeaseTTL.
	LeaseTTL time.Duration
	// Log, when set, receives one line per lease/report event.
	Log func(format string, args ...any)

	// now overrides the clock in tests.
	now func() time.Time
}

// Coordinator tracks shard leases and merges reported aggregates. It
// is driven entirely by its HTTP handlers (see Handler); it starts no
// goroutines and owns no timers.
type Coordinator struct {
	spec     Spec
	dir      string
	leaseTTL time.Duration
	log      func(format string, args ...any)
	now      func() time.Time
	// reserveUntil is zero on a fresh dir. After a restart it is one
	// lease TTL past the coordinator's start: until then a lease request
	// gets no idle shard, because a live worker may still be folding it
	// and has not renewed yet (its next progress report adopts it), and
	// Drained stays open, because a live worker may not have asked yet.
	reserveUntil time.Time

	mu     sync.Mutex
	shards []shardState      //bce:guardedby mu
	result *population.Study //bce:guardedby mu — set once all shards report
	doneCh chan struct{}     //bce:guardedby mu — closed alongside result
	// workers maps each worker heard from to whether it still awaits
	// the done reply it exits on.
	workers map[string]bool //bce:guardedby mu
	drained chan struct{}   //bce:guardedby mu — closed once, see Drained
}

// NewCoordinator builds a coordinator for spec on opts.Dir. It either
// records the spec there (fresh run) or verifies the recorded spec
// matches (restart) — a dir from a *different* study is refused loudly
// — and re-adopts every shard already reported there.
func NewCoordinator(spec Spec, opts CoordinatorOptions) (*Coordinator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("fabric: coordinator needs a Dir for its spec and reported shards")
	}
	c := &Coordinator{
		spec:     spec,
		dir:      opts.Dir,
		leaseTTL: opts.LeaseTTL,
		log:      opts.Log,
		now:      opts.now,
		shards:   make([]shardState, spec.Shards),
		doneCh:   make(chan struct{}),
		workers:  make(map[string]bool),
		drained:  make(chan struct{}),
	}
	if c.leaseTTL <= 0 {
		c.leaseTTL = DefaultLeaseTTL
	}
	if c.log == nil {
		c.log = func(string, ...any) {}
	}
	if c.now == nil {
		c.now = func() time.Time { return time.Now() } //bce:wallclock lease TTLs expire in real time across real processes
	}
	if err := c.restore(); err != nil {
		return nil, err
	}
	return c, nil
}

// restore binds the coordinator to its directory: spec check-or-write,
// then shard re-adoption.
func (c *Coordinator) restore() error {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return fmt.Errorf("fabric: coordinator dir: %w", err)
	}
	specPath := filepath.Join(c.dir, specFileName)
	want, err := json.MarshalIndent(&c.spec, "", " ")
	if err != nil {
		return fmt.Errorf("fabric: encode spec: %w", err)
	}
	switch have, err := os.ReadFile(specPath); {
	case err == nil:
		var onDisk Spec
		if jerr := json.Unmarshal(have, &onDisk); jerr != nil {
			return fmt.Errorf("fabric: parse %s: %w", specPath, jerr)
		}
		redisk, _ := json.Marshal(&onDisk) //bce:errok Spec just unmarshalled; Marshal cannot fail
		reWant, _ := json.Marshal(&c.spec) //bce:errok Spec marshalled indented two lines up
		if string(redisk) != string(reWant) {
			return fmt.Errorf("fabric: %s belongs to a different study: dir has %s, this run wants %s (use a fresh -dir or matching flags)",
				specPath, redisk, reWant)
		}
		c.reserveUntil = c.now().Add(c.leaseTTL)
		c.log("fabric: restarted on %s; idle shards wait %s for their workers' renewals", c.dir, c.leaseTTL)
	case errors.Is(err, os.ErrNotExist):
		if werr := population.WriteFileAtomic(specPath, want); werr != nil {
			return fmt.Errorf("fabric: write spec: %w", werr)
		}
	default:
		return fmt.Errorf("fabric: read spec: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.shards {
		st, err := population.LoadCheckpoint(c.shardPath(i))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("fabric: restore shard %d: %w", i, err)
		}
		if err := c.validateShardStudy(i, st); err != nil {
			return fmt.Errorf("fabric: restore shard %d: %w", i, err)
		}
		c.shards[i] = shardState{state: shardDone, done: st.Done, study: st}
		c.log("fabric: restored reported shard %d from %s", i, c.shardPath(i))
	}
	return c.maybeFinishLocked()
}

func (c *Coordinator) shardPath(i int) string {
	return filepath.Join(c.dir, fmt.Sprintf("shard-%03d.json", i))
}

// validateShardStudy checks that a study is the complete, correct
// aggregate for shard i of this spec.
func (c *Coordinator) validateShardStudy(i int, st *population.Study) error {
	lo, n := c.spec.ShardRange(i)
	if st.Lo != lo || st.Target != n {
		return fmt.Errorf("covers [%d,%d), want [%d,%d)", st.Lo, st.Lo+st.Target, lo, lo+n)
	}
	if st.Done != st.Target {
		return fmt.Errorf("incomplete: %d of %d scenarios", st.Done, st.Target)
	}
	p, err := c.spec.Params(i)
	if err != nil {
		return err
	}
	if diffs := population.DiffParams(st, p); len(diffs) != 0 {
		return fmt.Errorf("study disagrees with spec: %v", diffs)
	}
	return nil
}

// Handler returns the coordinator's HTTP interface (see wire.go).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/lease", c.handleLease)
	mux.HandleFunc("/v1/progress", c.handleProgress)
	mux.HandleFunc("/v1/report", c.handleReport)
	mux.HandleFunc("/v1/status", c.handleStatus)
	return mux
}

// Done is closed when every shard has reported and the merge finished.
func (c *Coordinator) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.doneCh
}

// Drained is closed once the study is complete, every worker this
// coordinator has heard from has been answered done (each reply
// already flushed to its connection), and a restarted coordinator's
// reservation is over: then every worker still alive has been heard
// from. It closes at the first request that finds all three true. A
// worker exits only on the done reply and takes a refused connection
// for a coordinator restart, so a coordinator process keeps serving
// until Drained, or for a lease TTL after Done when no such request
// comes, before it stops.
func (c *Coordinator) Drained() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.drained
}

// noteWorkerLocked records whether a worker still awaits its done
// reply, closing drained when the study is complete, none does and the
// restart reservation is over. Callers hold mu.
func (c *Coordinator) noteWorkerLocked(name string, awaiting bool) {
	c.workers[name] = awaiting
	if c.result == nil {
		return
	}
	for _, a := range c.workers {
		if a {
			return
		}
	}
	if c.now().Before(c.reserveUntil) {
		return
	}
	select {
	case <-c.drained:
	default:
		close(c.drained)
	}
}

// Result returns the merged study, or an error while shards are still
// outstanding.
func (c *Coordinator) Result() (*population.Study, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.result == nil {
		return nil, fmt.Errorf("fabric: study incomplete")
	}
	return c.result, nil
}

// Status returns a snapshot of shard states.
func (c *Coordinator) Status() StatusReply {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	rep := StatusReply{Shards: len(c.shards), Scenarios: c.spec.Scenarios, Complete: c.result != nil}
	for i := range c.shards {
		sh := &c.shards[i]
		switch {
		case sh.state == shardDone:
			rep.Done++
			rep.ScenariosDone += sh.done
		case sh.state == shardLeased && now.Before(sh.expires):
			rep.Leased++
			rep.ScenariosDone += sh.done
			rep.Workers = append(rep.Workers, sh.worker)
		default:
			rep.Idle++
			rep.ScenariosDone += sh.done
		}
	}
	return rep
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if req.Worker == "" {
		writeError(w, http.StatusBadRequest, "fabric: lease request without a worker name")
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.noteWorkerLocked(req.Worker, true)

	grant := func(i int) {
		sh := &c.shards[i] //bce:lockok grant only runs below, with handleLease's mu held
		sh.state = shardLeased
		sh.worker = req.Worker
		sh.expires = now.Add(c.leaseTTL)
		lo, n := c.spec.ShardRange(i)
		c.log("fabric: leased shard %d [%d,%d) to %s", i, lo, lo+n, req.Worker)
		spec := c.spec
		writeJSON(w, http.StatusOK, LeaseReply{
			Status: StatusLease, Shard: i, Lo: lo, N: n,
			Spec: &spec, LeaseSecs: c.leaseTTL.Seconds(),
		})
	}

	// A worker that already holds a lease gets the same shard back —
	// that's a restarted worker reclaiming its work, not a new claim.
	for i := range c.shards {
		sh := &c.shards[i]
		if sh.state == shardLeased && sh.worker == req.Worker {
			grant(i)
			return
		}
	}
	done := 0
	for i := range c.shards {
		sh := &c.shards[i]
		switch {
		case sh.state == shardDone:
			done++
		case sh.state == shardIdle && now.Before(c.reserveUntil):
			// Reserved for the worker that may still hold it.
		case sh.state == shardIdle, sh.state == shardLeased && !now.Before(sh.expires):
			if sh.state == shardLeased {
				c.log("fabric: lease on shard %d by %s expired; re-granting to %s", i, sh.worker, req.Worker)
			}
			grant(i)
			return
		}
	}
	if done == len(c.shards) {
		// The reply goes onto the connection before the worker counts
		// as answered: once every worker is, Drained fires and the host
		// may close the server, cutting off anything still buffered.
		writeJSON(w, http.StatusOK, LeaseReply{Status: StatusDone})
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		c.noteWorkerLocked(req.Worker, false)
		return
	}
	// Everything is leased out and live: come back in a second, the
	// cadence at which a worker retries an unreachable coordinator, so
	// a waiting worker hears done within a second of the last report.
	w.Header().Set("Retry-After", fmt.Sprintf("%g", serve.DefaultRetryAfter.Seconds()))
	writeJSON(w, http.StatusOK, LeaseReply{Status: StatusWait})
}

func (c *Coordinator) handleProgress(w http.ResponseWriter, r *http.Request) {
	var req ProgressRequest
	if !decodeInto(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.noteWorkerLocked(req.Worker, true)
	if req.Shard < 0 || req.Shard >= len(c.shards) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("fabric: no shard %d", req.Shard))
		return
	}
	sh := &c.shards[req.Shard]
	now := c.now()
	switch {
	case sh.state == shardDone:
		writeError(w, http.StatusConflict, fmt.Sprintf("fabric: shard %d already reported", req.Shard))
		return
	case sh.state == shardLeased && sh.worker != req.Worker && now.Before(sh.expires):
		writeError(w, http.StatusConflict,
			fmt.Sprintf("fabric: shard %d is leased to %s", req.Shard, sh.worker))
		return
	}
	// Idle, expired, or our own lease: (re-)adopt and renew. The idle
	// case matters after a coordinator restart — in-flight workers keep
	// renewing and silently re-register their leases.
	sh.state = shardLeased
	sh.worker = req.Worker
	sh.expires = now.Add(c.leaseTTL)
	sh.done = req.Done
	writeJSON(w, http.StatusOK, struct{}{})
}

func (c *Coordinator) handleReport(w http.ResponseWriter, r *http.Request) {
	var req ReportRequest
	if !decodeInto(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.noteWorkerLocked(req.Worker, true)
	if req.Shard < 0 || req.Shard >= len(c.shards) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("fabric: no shard %d", req.Shard))
		return
	}
	if req.Study == nil {
		writeError(w, http.StatusBadRequest, "fabric: report without a study")
		return
	}
	if err := c.validateShardStudy(req.Shard, req.Study); err != nil {
		writeError(w, http.StatusConflict, fmt.Sprintf("fabric: rejected report for shard %d: %v", req.Shard, err))
		return
	}
	sh := &c.shards[req.Shard]
	if sh.state == shardDone {
		// Idempotent re-delivery is fine; a *different* result for the
		// same shard means determinism broke and must be loud.
		have, _ := json.Marshal(sh.study) //bce:errok a Study round-trips through JSON by construction
		got, _ := json.Marshal(req.Study) //bce:errok a Study round-trips through JSON by construction
		if string(have) == string(got) {
			writeJSON(w, http.StatusOK, struct{}{})
			return
		}
		writeError(w, http.StatusConflict,
			fmt.Sprintf("fabric: shard %d reported twice with different aggregates", req.Shard))
		return
	}
	if err := population.SaveCheckpoint(c.shardPath(req.Shard), req.Study); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	sh.state = shardDone
	sh.worker = ""
	sh.done = req.Study.Done
	sh.study = req.Study
	c.log("fabric: shard %d reported by %s (%d scenarios)", req.Shard, req.Worker, req.Study.Done)
	if err := c.maybeFinishLocked(); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

// maybeFinishLocked merges once every shard has reported. Callers hold mu.
func (c *Coordinator) maybeFinishLocked() error {
	if c.result != nil {
		return nil
	}
	parts := make([]*population.Study, 0, len(c.shards))
	for i := range c.shards {
		if c.shards[i].state != shardDone {
			return nil
		}
		parts = append(parts, c.shards[i].study)
	}
	merged, err := population.MergeStudies(parts)
	if err != nil {
		return fmt.Errorf("fabric: merging %d shards: %w", len(parts), err)
	}
	c.result = merged
	close(c.doneCh)
	c.log("fabric: all %d shards reported; study complete (%d scenarios)", len(parts), merged.Done)
	return nil
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Status())
}

// decodeInto parses a POSTed JSON body, writing the error response
// itself when the request is unusable.
func decodeInto(w http.ResponseWriter, r *http.Request, out any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "fabric: POST required")
		return false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("fabric: reading body: %v", err))
		return false
	}
	if err := json.Unmarshal(body, out); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("fabric: parsing body: %v", err))
		return false
	}
	return true
}

// writeJSON sends v as the whole reply. It declares the length, so a
// flushed reply is complete on the wire even while the handler runs.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status, body = http.StatusInternalServerError, []byte(`{"error":"fabric: unencodable reply"}`)
	}
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) //bce:errok the client hung up; there is no one left to tell
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorReply{Error: msg})
}
