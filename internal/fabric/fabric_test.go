package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bce/internal/client"
	"bce/internal/metrics"
	"bce/internal/population"
	"bce/internal/runner"
)

// stubBatch fabricates deterministic per-cell metrics from the spec
// label, mirroring the population package's test stub: results depend
// only on the label, so a fabric run and a single-process run fold
// identical samples.
func stubBatch(ctx context.Context, specs []runner.Spec, opts ...runner.Option) ([]runner.RunResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	results := make([]runner.RunResult, len(specs))
	for i, sp := range specs {
		h := uint64(14695981039346656037)
		for _, c := range []byte(sp.Label) {
			h = (h ^ uint64(c)) * 1099511628211
		}
		var m metrics.Metrics
		m.IdleFraction = float64(h%1000) / 1000
		m.WastedFraction = float64((h>>10)%1000) / 1000
		m.ShareViolation = float64((h>>20)%1000) / 1000
		m.Monotony = float64((h>>30)%1000) / 1000
		m.RPCsPerJob = float64((h>>40)%1000) / 1000
		results[i] = runner.RunResult{Index: i, Label: sp.Label, Result: &client.Result{Metrics: m}}
	}
	return results, nil
}

func testSpec(scenarios, shards int) Spec {
	return Spec{
		Seed:      42,
		Combos:    []population.Combo{{Sched: "JS-LOCAL", Fetch: "JF-ORIG"}, {Sched: "JS-GLOBAL", Fetch: "JF-HYSTERESIS"}},
		Scenarios: scenarios,
		Shards:    shards,
		BatchSize: 16,
	}
}

// singleFold runs the whole spec range in one process with the same
// stub engine — the bit-identical reference every fabric test compares
// against.
func singleFold(t *testing.T, spec Spec) *population.Study {
	t.Helper()
	st, err := population.Run(context.Background(), population.Params{
		Combos:     spec.Combos,
		Scenarios:  spec.Scenarios,
		Seed:       spec.Seed,
		Population: spec.Population,
		BatchSize:  spec.BatchSize,
		RunBatch:   stubBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func asJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestShardRangeTiles(t *testing.T) {
	for _, tc := range [][2]int{{10, 3}, {10, 10}, {7, 2}, {1000, 7}, {5, 1}} {
		s := Spec{Scenarios: tc[0], Shards: tc[1]}
		next := 0
		for i := 0; i < s.Shards; i++ {
			lo, n := s.ShardRange(i)
			if lo != next {
				t.Fatalf("%v shard %d starts at %d, want %d", tc, i, lo, next)
			}
			if n <= 0 {
				t.Fatalf("%v shard %d is empty", tc, i)
			}
			next = lo + n
		}
		if next != s.Scenarios {
			t.Fatalf("%v shards tile to %d, want %d", tc, next, s.Scenarios)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		ok   bool
	}{
		{testSpec(100, 4), true},
		{testSpec(0, 4), false},
		{testSpec(100, 0), false},
		{testSpec(3, 4), false},
	} {
		err := tc.spec.Validate()
		if tc.ok && err != nil {
			t.Errorf("%+v: unexpected error %v", tc.spec, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%+v: validation should fail", tc.spec)
		}
	}
}

// A coordinator keeps its spec and reported shards on disk, so one
// without a Dir is refused.
func TestNewCoordinatorNeedsDir(t *testing.T) {
	if _, err := NewCoordinator(testSpec(10, 2), CoordinatorOptions{}); err == nil || !strings.Contains(err.Error(), "Dir") {
		t.Fatalf("NewCoordinator without a Dir: %v, want a refusal naming Dir", err)
	}
}

// runWorkers drives n workers concurrently against the coordinator URL
// until each exits, failing the test on any worker error.
func runWorkers(t *testing.T, ctx context.Context, url, dir string, names ...string) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(names))
	for i, name := range names {
		w := &Worker{Coord: url, Name: name, Dir: dir + "/" + name, RunBatch: stubBatch, Log: t.Logf}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %s: %v", names[i], err)
		}
	}
}

// The headline guarantee: two workers, four shards, a persisted
// coordinator — the merged result is bit-identical to one process
// folding the whole range.
func TestFabricEndToEndBitIdentical(t *testing.T) {
	spec := testSpec(200, 4)
	want := asJSON(t, singleFold(t, spec))

	dir := t.TempDir()
	c, err := NewCoordinator(spec, CoordinatorOptions{Dir: dir + "/coord", LeaseTTL: 5 * time.Second, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	runWorkers(t, context.Background(), srv.URL, dir, "w1", "w2")

	select {
	case <-c.Done():
	default:
		t.Fatal("workers exited but the study is not done")
	}
	got, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	if asJSON(t, got) != want {
		t.Fatal("sharded result differs from single-process fold")
	}
	status := c.Status()
	if !status.Complete || status.Done != spec.Shards || status.ScenariosDone != spec.Scenarios {
		t.Fatalf("status after completion: %+v", status)
	}
}

// Kill a worker mid-shard (context cancel — the in-process equivalent
// of kill -9 at a batch boundary), restart it under the same name and
// dir, and require the final merged study to match the uninterrupted
// reference bit for bit.
func TestFabricWorkerKillAndResume(t *testing.T) {
	spec := testSpec(240, 3)
	want := asJSON(t, singleFold(t, spec))

	dir := t.TempDir()
	c, err := NewCoordinator(spec, CoordinatorOptions{Dir: dir + "/coord", LeaseTTL: 5 * time.Second, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// First incarnation: dies after a couple of folded batches.
	killCtx, kill := context.WithCancel(context.Background())
	w1 := &Worker{Coord: srv.URL, Name: "w1", Dir: dir + "/w1", RunBatch: stubBatch, Log: t.Logf}
	batches := 0
	w1.Progress = func(shard, done, total int) {
		if batches++; batches == 2 {
			kill()
		}
	}
	if err := w1.Run(killCtx); err == nil {
		t.Fatal("killed worker reported success")
	}

	// Restart under the same identity: reclaims the lease, resumes the
	// shard checkpoint, finishes the study.
	w2 := &Worker{Coord: srv.URL, Name: "w1", Dir: dir + "/w1", RunBatch: stubBatch, Log: t.Logf}
	if err := w2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	got, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	if asJSON(t, got) != want {
		t.Fatal("kill/resume result differs from single-process fold")
	}
}

// Kill the coordinator between shard reports, restart it on the same
// dir, and finish the study — the spec file and persisted shard
// reports must carry all the state across.
func TestFabricCoordinatorRestart(t *testing.T) {
	spec := testSpec(120, 3)
	want := asJSON(t, singleFold(t, spec))

	dir := t.TempDir()
	coordDir := dir + "/coord"
	// A short TTL: the restarted coordinator holds idle shards back for
	// one TTL, and the workers below wait that out.
	c1, err := NewCoordinator(spec, CoordinatorOptions{Dir: coordDir, LeaseTTL: time.Second, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	// The spec is written atomically: the dir holds spec.json and no
	// temp file.
	entries, err := os.ReadDir(coordDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != specFileName {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("coordinator dir holds %v, want only %s", names, specFileName)
	}
	srv1 := httptest.NewServer(c1.Handler())

	// Run one worker against coordinator #1 until the first shard is
	// reported, then "crash" the coordinator.
	stopCtx, stop := context.WithCancel(context.Background())
	w := &Worker{Coord: srv1.URL, Name: "w1", Dir: dir + "/w1", RunBatch: stubBatch, Log: t.Logf}
	go func() {
		for {
			select {
			case <-stopCtx.Done():
				return
			case <-time.After(5 * time.Millisecond):
			}
			if c1.Status().Done >= 1 {
				stop()
				return
			}
		}
	}()
	_ = w.Run(stopCtx) //bce:errok the context cancel that stops the worker is the expected outcome here
	srv1.Close()
	if got := c1.Status().Done; got < 1 {
		t.Fatalf("setup: %d shards reported before the crash, want >= 1", got)
	}

	// Coordinator #2 on the same dir must refuse a different spec...
	other := spec
	other.Seed = 7
	if _, err := NewCoordinator(other, CoordinatorOptions{Dir: coordDir}); err == nil {
		t.Fatal("restart with a different spec should fail")
	}
	// ...and adopt the reported shards for the true spec.
	c2, err := NewCoordinator(spec, CoordinatorOptions{Dir: coordDir, LeaseTTL: time.Second, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if c2.Status().Done != c1.Status().Done {
		t.Fatalf("restarted coordinator sees %d done shards, want %d", c2.Status().Done, c1.Status().Done)
	}
	srv2 := httptest.NewServer(c2.Handler())
	defer srv2.Close()

	runWorkers(t, context.Background(), srv2.URL, dir, "w1", "w2")
	got, err := c2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if asJSON(t, got) != want {
		t.Fatal("post-restart result differs from single-process fold")
	}
}

// A coordinator dir whose spec.json still carries the
// "checkpoint_every" field older builds wrote restores: the field is
// gone from Spec, and the spec check compares re-encoded specs.
func TestFabricRestoresSpecWithCheckpointEvery(t *testing.T) {
	spec := testSpec(60, 3)
	dir := t.TempDir()
	old, err := json.MarshalIndent(struct {
		Spec
		CheckpointEvery int `json:"checkpoint_every"`
	}{spec, 1}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(old), `"checkpoint_every": 1`) {
		t.Fatalf("setup: spec file %s", old)
	}
	if err := os.WriteFile(filepath.Join(dir, specFileName), old, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := spec.Params(1)
	if err != nil {
		t.Fatal(err)
	}
	p.RunBatch = stubBatch
	shard, err := population.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if err := population.SaveCheckpoint(filepath.Join(dir, "shard-001.json"), shard); err != nil {
		t.Fatal(err)
	}

	c, err := NewCoordinator(spec, CoordinatorOptions{Dir: dir})
	if err != nil {
		t.Fatalf("restoring a dir with checkpoint_every in its spec: %v", err)
	}
	if st := c.Status(); st.Done != 1 || st.Idle != 2 {
		t.Fatalf("restored status %+v; want shard 1 done, 2 idle", st)
	}
}

// A restarted coordinator cannot tell an idle shard from one a live
// worker is still folding, so for one lease TTL it grants no idle
// shard: the folding worker's renewal adopts its shard first, and a
// waiting worker then gets a different one.
func TestFabricRestartReservesIdleShards(t *testing.T) {
	spec := testSpec(60, 3)
	dir := t.TempDir()
	clock := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	opts := CoordinatorOptions{Dir: dir, LeaseTTL: 30 * time.Second, now: func() time.Time { return clock }}
	ctx := context.Background()

	// On a fresh dir a lease is granted at once.
	c1, err := NewCoordinator(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(c1.Handler())
	wa := &Worker{Coord: srv1.URL, Name: "a", Dir: t.TempDir()}
	la, _, err := wa.lease(ctx)
	srv1.Close()
	if err != nil || la.Status != StatusLease {
		t.Fatalf("a's lease on a fresh coordinator: %+v, %v", la, err)
	}
	k := la.Shard

	// The coordinator restarts on the same dir while a folds shard k.
	clock = clock.Add(5 * time.Second)
	c2, err := NewCoordinator(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(c2.Handler())
	defer srv2.Close()
	wa.Coord = srv2.URL
	wb := &Worker{Coord: srv2.URL, Name: "b", Dir: t.TempDir()}
	if lb, _, err := wb.lease(ctx); err != nil || lb.Status != StatusWait {
		t.Fatalf("b's lease right after the restart: %+v, %v; want wait", lb, err)
	}
	clock = clock.Add(10 * time.Second)
	status, _, err := wa.post(ctx, "/v1/progress", ProgressRequest{Worker: "a", Shard: k, Done: spec.BatchSize}, &struct{}{})
	if err != nil || status != 200 {
		t.Fatalf("a's renewal adopting shard %d: %d, %v", k, status, err)
	}
	clock = clock.Add(19 * time.Second)
	if lb, _, err := wb.lease(ctx); err != nil || lb.Status != StatusWait {
		t.Fatalf("b's lease just inside the reservation: %+v, %v; want wait", lb, err)
	}

	// One TTL after the restart, b gets an idle shard, never k.
	clock = clock.Add(time.Second)
	lb, _, err := wb.lease(ctx)
	if err != nil || lb.Status != StatusLease {
		t.Fatalf("b's lease after the reservation: %+v, %v", lb, err)
	}
	if lb.Shard == k {
		t.Fatalf("b was granted shard %d, which a is still folding", k)
	}
	if st := c2.Status(); st.Leased != 2 || st.Idle != 1 {
		t.Fatalf("status after both leases: %+v; want 2 leased, 1 idle", st)
	}
}

// Lease arbitration under an injected clock: a second worker waits,
// expiry hands the shard to it, after which the old holder's renewals
// are refused.
func TestFabricLeaseExpiry(t *testing.T) {
	spec := testSpec(10, 1)
	clock := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	c, err := NewCoordinator(spec, CoordinatorOptions{
		Dir:      t.TempDir(),
		LeaseTTL: DefaultLeaseTTL,
		now:      func() time.Time { return clock },
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx := context.Background()

	wa := &Worker{Coord: srv.URL, Name: "a", Dir: t.TempDir()}
	wb := &Worker{Coord: srv.URL, Name: "b", Dir: t.TempDir()}

	la, _, err := wa.lease(ctx)
	if err != nil || la.Status != StatusLease {
		t.Fatalf("a's lease: %+v, %v", la, err)
	}
	lb, retryAfter, err := wb.lease(ctx)
	if err != nil || lb.Status != StatusWait {
		t.Fatalf("b should wait while a holds the only shard: %+v, %v", lb, err)
	}
	// At the default TTL, the wait reply asks b back within a second
	// (lease parses it with serve.ParseRetryAfter), so a waiting worker
	// hears done within a second of the last report.
	if retryAfter > time.Second {
		t.Fatalf("wait reply asks b back after %v, want at most 1s", retryAfter)
	}

	// A heartbeats: still the holder.
	status, _, err := wa.post(ctx, "/v1/progress", ProgressRequest{Worker: "a", Shard: 0, Done: 1}, &struct{}{})
	if err != nil || status != 200 {
		t.Fatalf("a's renewal: %d, %v", status, err)
	}

	// Clock jumps past the TTL: b takes the shard over, and a's next
	// renewal is refused.
	clock = clock.Add(DefaultLeaseTTL + time.Second)
	lb, _, err = wb.lease(ctx)
	if err != nil || lb.Status != StatusLease || lb.Shard != 0 {
		t.Fatalf("b should win the expired lease: %+v, %v", lb, err)
	}
	status, _, err = wa.post(ctx, "/v1/progress", ProgressRequest{Worker: "a", Shard: 0, Done: 2}, &struct{}{})
	if err != nil || status != 409 {
		t.Fatalf("a's renewal after expiry: status %d, %v; want 409", status, err)
	}
}

// A worker whose lease is lost mid-fold (another worker reported the
// shard first, as after a coordinator restart re-grants it) abandons
// the fold and leases again; it must not report its partial study,
// which the coordinator refuses as incomplete.
func TestFabricLostLeaseIsNotReported(t *testing.T) {
	spec := testSpec(40, 1)
	c, err := NewCoordinator(spec, CoordinatorOptions{Dir: t.TempDir(), LeaseTTL: 30 * time.Second, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx := context.Background()

	p, err := spec.Params(0)
	if err != nil {
		t.Fatal(err)
	}
	p.RunBatch = stubBatch
	full, err := population.Run(ctx, p)
	if err != nil {
		t.Fatal(err)
	}

	a := &Worker{Coord: srv.URL, Name: "a", Dir: t.TempDir(), RunBatch: stubBatch, Log: t.Logf}
	a.Progress = func(shard, done, total int) {
		if done != spec.BatchSize {
			return
		}
		// After a's first batch, b delivers the whole shard; a's
		// renewal right after this hook is refused.
		status, _, err := a.post(ctx, "/v1/report", ReportRequest{Worker: "b", Shard: 0, Study: full}, &struct{}{})
		if err != nil || status != 200 {
			t.Errorf("b's report: %d, %v", status, err)
		}
	}
	if err := a.Run(ctx); err != nil {
		t.Fatalf("worker with a lost lease: %v; want a clean exit on the done reply", err)
	}
}

// drained reports whether c's Drained channel is closed.
func drained(c *Coordinator) bool {
	select {
	case <-c.Drained():
		return true
	default:
		return false
	}
}

// A worker exits only on a done reply, so Drained — which lets a
// coordinator process stop serving — waits for every worker heard from,
// including one whose lease expired while it was silent.
func TestFabricDrainedAfterEveryDoneReply(t *testing.T) {
	spec := testSpec(40, 2)
	clock := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	c, err := NewCoordinator(spec, CoordinatorOptions{
		Dir:      t.TempDir(),
		LeaseTTL: 30 * time.Second,
		now:      func() time.Time { return clock },
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx := context.Background()

	wb := &Worker{Coord: srv.URL, Name: "b", Dir: t.TempDir()}
	if l, _, err := wb.lease(ctx); err != nil || l.Status != StatusLease {
		t.Fatalf("b's lease: %+v, %v", l, err)
	}
	clock = clock.Add(31 * time.Second)

	// a takes over b's expired shard, folds the study, and exits on its
	// done reply; b has not asked since.
	runWorkers(t, ctx, srv.URL, t.TempDir(), "a")
	select {
	case <-c.Done():
	default:
		t.Fatal("worker exited but the study is not done")
	}
	if drained(c) {
		t.Fatal("drained before b was answered done")
	}

	if l, _, err := wb.lease(ctx); err != nil || l.Status != StatusDone {
		t.Fatalf("b's lease after completion: %+v, %v; want done", l, err)
	}
	if !drained(c) {
		t.Fatal("not drained after every worker was answered done")
	}
}

// Drained waits out a restarted coordinator's reservation: workers of
// the old process may still be retrying it, and within one lease TTL
// every live one has asked. A fresh coordinator has heard from every
// worker it must answer, so its Drained closes with the last done reply.
func TestFabricDrainedWaitsOutReservation(t *testing.T) {
	spec := testSpec(8, 2)
	dir := t.TempDir()
	clock := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	const ttl = 30 * time.Second
	opts := CoordinatorOptions{Dir: dir, LeaseTTL: ttl, now: func() time.Time { return clock }}
	ctx := context.Background()

	c1, err := NewCoordinator(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(c1.Handler())
	runWorkers(t, ctx, srv1.URL, t.TempDir(), "a")
	srv1.Close()
	if !drained(c1) {
		t.Fatal("a fresh coordinator is not drained after its only worker's done reply")
	}

	// Restarted on the finished dir, the coordinator answers done at
	// once, but Drained waits for the first request at or after the
	// reservation's end.
	clock = clock.Add(time.Minute)
	restart := clock
	c2, err := NewCoordinator(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(c2.Handler())
	defer srv2.Close()
	w := &Worker{Coord: srv2.URL, Name: "a", Dir: t.TempDir()}
	for _, step := range []struct {
		after   time.Duration
		drained bool
	}{{0, false}, {ttl - time.Nanosecond, false}, {ttl, true}} {
		clock = restart.Add(step.after)
		if l, _, err := w.lease(ctx); err != nil || l.Status != StatusDone {
			t.Fatalf("lease %v after the restart: %+v, %v; want done", step.after, l, err)
		}
		if got := drained(c2); got != step.drained {
			t.Fatalf("drained %v after a done reply %v after the restart; want %v", got, step.after, step.drained)
		}
	}
}

// flushWatch passes responses through and records whether a done
// lease reply has been flushed to the connection.
type flushWatch struct {
	http.ResponseWriter
	done    bool // this response is a done reply
	flushed *atomic.Bool
}

func (w *flushWatch) Write(b []byte) (int, error) {
	w.done = w.done || bytes.Contains(b, []byte(`"status":"done"`))
	return w.ResponseWriter.Write(b)
}

func (w *flushWatch) Flush() {
	w.ResponseWriter.(http.Flusher).Flush()
	if w.done {
		w.flushed.Store(true)
	}
}

// Drained tells a host it may stop serving, so the last done reply
// must be on the connection when it fires: a host that closes its
// server, active connections and all, the moment Drained fires must
// still see its worker's Run return nil, every time.
func TestFabricDoneReplySentBeforeDrained(t *testing.T) {
	spec := testSpec(8, 2)
	for i := 0; i < 50; i++ {
		c, err := NewCoordinator(spec, CoordinatorOptions{Dir: t.TempDir(), LeaseTTL: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		var flushed atomic.Bool
		h := c.Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(&flushWatch{ResponseWriter: w, flushed: &flushed}, r)
		}))
		early := make(chan bool, 1)
		go func() {
			<-c.Drained()
			early <- !flushed.Load()
			srv.Config.Close() // http.Server.Close: active connections too
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		w := &Worker{Coord: srv.URL, Name: "w", Dir: t.TempDir(), RunBatch: stubBatch}
		err = w.Run(ctx)
		cancel()
		srv.Close()
		if <-early {
			t.Fatalf("run %d: Drained fired before the done reply was flushed", i)
		}
		if err != nil {
			t.Fatalf("run %d: worker: %v; want nil, the done reply delivered before the server closed", i, err)
		}
	}
}

// Report validation: wrong ranges, incomplete shards and diverging
// duplicates are refused; bit-identical duplicates are acknowledged.
func TestFabricReportValidation(t *testing.T) {
	spec := testSpec(100, 2)
	c, err := NewCoordinator(spec, CoordinatorOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx := context.Background()
	w := &Worker{Coord: srv.URL, Name: "w", Dir: t.TempDir()}

	foldShard := func(i int) *population.Study {
		p, err := spec.Params(i)
		if err != nil {
			t.Fatal(err)
		}
		p.RunBatch = stubBatch
		st, err := population.Run(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	post := func(req ReportRequest) (int, string) {
		var deny errorReply
		status, _, err := w.post(ctx, "/v1/report", req, &deny)
		if err != nil {
			t.Fatal(err)
		}
		return status, deny.Error
	}

	good := foldShard(0)
	if status, msg := post(ReportRequest{Worker: "w", Shard: 1, Study: good}); status != 409 || !strings.Contains(msg, "covers") {
		t.Fatalf("wrong-range report: %d %q", status, msg)
	}
	incomplete, err := population.Run(ctx, population.Params{
		Combos: spec.Combos, Scenarios: 10, Seed: spec.Seed, RunBatch: stubBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if status, _ := post(ReportRequest{Worker: "w", Shard: 0, Study: incomplete}); status != 409 {
		t.Fatalf("short report accepted: %d", status)
	}
	if status, _ := post(ReportRequest{Worker: "w", Shard: 0, Study: good}); status != 200 {
		t.Fatalf("valid report refused: %d", status)
	}
	if status, _ := post(ReportRequest{Worker: "w", Shard: 0, Study: good}); status != 200 {
		t.Fatalf("idempotent re-report refused: %d", status)
	}
	mutated, err := population.MergeStudies([]*population.Study{good})
	if err != nil {
		t.Fatal(err)
	}
	mutated.Aggs[0].Failed++
	if status, msg := post(ReportRequest{Worker: "w", Shard: 0, Study: mutated}); status != 409 || !strings.Contains(msg, "different aggregates") {
		t.Fatalf("diverging re-report: %d %q", status, msg)
	}
}

// A stale local checkpoint (from some other study) must stop the
// worker loudly instead of poisoning the shard.
func TestFabricWorkerRejectsStaleCheckpoint(t *testing.T) {
	spec := testSpec(100, 2)
	c, err := NewCoordinator(spec, CoordinatorOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// Seed the worker dir with a checkpoint folded under another seed,
	// sitting exactly where shard 0's checkpoint belongs.
	dir := t.TempDir()
	stale, err := population.Run(context.Background(), population.Params{
		Combos: spec.Combos, Scenarios: 50, Seed: 999, RunBatch: stubBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := population.SaveCheckpoint(dir+"/shard-000.ck.json", stale); err != nil {
		t.Fatal(err)
	}

	w := &Worker{Coord: srv.URL, Name: "w", Dir: dir, RunBatch: stubBatch}
	err = w.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "disagrees") {
		t.Fatalf("stale checkpoint: got %v, want a loud spec disagreement", err)
	}
}
