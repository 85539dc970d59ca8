package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"bce/internal/runner"
	"bce/internal/scenario"
)

func tinyScenario(seed int64) *scenario.Scenario {
	s := DefaultLoadgenScenario(0.02)
	s.Seed = seed
	return s
}

func runRequest(seed int64) Request {
	return Request{Kind: KindRun, Scenario: tinyScenario(seed)}
}

func TestFingerprintStableAndDiscriminating(t *testing.T) {
	a, err := Fingerprint(runRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fingerprint(runRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("identical requests fingerprint differently: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("fingerprint %q is not a hex SHA-256", a)
	}
	c, _ := Fingerprint(runRequest(2))
	if a == c {
		t.Fatal("different seeds share a fingerprint")
	}
	// A study request never collides with a run request.
	d, _ := Fingerprint(Request{Kind: KindStudy, StudyScenarios: 3, StudyDays: 0.1, StudySeed: 1})
	if d == a {
		t.Fatal("study and run requests share a fingerprint")
	}
}

// Two textually different uploads that parse to the same scenario must
// share a fingerprint: canonicalization happens by re-marshalling the
// typed struct, not by hashing upload bytes.
func TestFingerprintCanonicalizes(t *testing.T) {
	j1 := `{"name":"x","duration_days":10,"seed":1,` +
		`"host":{"ncpu":1,"cpu_gflops":1,"min_queue_hours":0.5,"max_queue_hours":1},` +
		`"projects":[{"name":"p","share":100,"apps":[{"name":"a","ncpus":1,"mean_secs":600,"latency_secs":86400}]}]}`
	// Same content: different key order, number spelling, whitespace.
	j2 := `{ "seed": 1, "duration_days": 1e1, "name": "x",` +
		`"projects":[{"apps":[{"latency_secs":86400,"name":"a","ncpus":1,"mean_secs":600}],"share":100.0,"name":"p"}],` +
		`"host":{"max_queue_hours":1,"ncpu":1,"cpu_gflops":1,"min_queue_hours":0.5} }`
	s1, err := scenario.Load(strings.NewReader(j1))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := scenario.Load(strings.NewReader(j2))
	if err != nil {
		t.Fatal(err)
	}
	f1, _ := Fingerprint(Request{Kind: KindRun, Scenario: s1})
	f2, _ := Fingerprint(Request{Kind: KindRun, Scenario: s2})
	if f1 != f2 {
		t.Fatalf("equivalent uploads fingerprint differently:\n%s\n%s", f1, f2)
	}
}

// Do must execute once and then serve the identical request from the
// cache, as counted by the Runs statistic.
func TestDoCachesByContent(t *testing.T) {
	s := New(Config{Batch: runner.Options{Workers: 2}})
	out1, hit1, err := s.Do(context.Background(), runRequest(1)) //bce:ctxshim test
	if err != nil || hit1 {
		t.Fatalf("first Do: hit=%v err=%v", hit1, err)
	}
	out2, hit2, err := s.Do(context.Background(), runRequest(1)) //bce:ctxshim test
	if err != nil || !hit2 {
		t.Fatalf("second Do: hit=%v err=%v, want cache hit", hit2, err)
	}
	if out1 != out2 {
		t.Fatal("cache returned a different outcome object")
	}
	st := s.Stats()
	if st.Runs != 1 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v, want 1 run / 1 hit", st)
	}
	// A different seed is a different content address.
	_, hit3, err := s.Do(context.Background(), runRequest(2)) //bce:ctxshim test
	if err != nil || hit3 {
		t.Fatalf("different request: hit=%v err=%v, want miss", hit3, err)
	}
	if s.Stats().Runs != 2 {
		t.Fatalf("Runs = %d, want 2", s.Stats().Runs)
	}
}

// A Do on a started service shares the Workers run slots with Submit:
// with one slot held by a queued 20-day run, a tiny Do must wait for
// that run to end instead of emulating beside it.
func TestDoSharesWorkerBound(t *testing.T) {
	s := New(Config{Batch: runner.Options{Workers: 1}})
	ctx, cancel := context.WithCancel(context.Background()) //bce:ctxshim test
	defer cancel()
	s.Start(ctx)
	long := tinyScenario(5)
	long.DurationDays = 20
	v, err := s.Submit(Request{Kind: KindRun, Scenario: long})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, v.ID, StateRunning)
	if _, _, err := s.Do(ctx, runRequest(6)); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Job(v.ID); !got.State.Terminal() {
		t.Fatalf("Do returned while the submitted run was %s: two emulations ran on one worker", got.State)
	}
}

// Concurrent identical Do calls join one job: one emulation, not two.
func TestDoDedupsConcurrentCalls(t *testing.T) {
	s := New(Config{Batch: runner.Options{Workers: 2}})
	scn := tinyScenario(7)
	scn.DurationDays = 5
	req := Request{Kind: KindRun, Scenario: scn}
	var wg sync.WaitGroup
	outs := make([]*Outcome, 2)
	errs := make([]error, 2)
	gate := make(chan struct{})
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			outs[i], _, errs[i] = s.Do(context.Background(), req) //bce:ctxshim test
		}(i)
	}
	close(gate)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if outs[0] != outs[1] {
		t.Fatal("identical Do calls returned different outcomes")
	}
	if runs := s.Stats().Runs; runs != 1 {
		t.Fatalf("Runs = %d, want 1 for two identical concurrent Do calls", runs)
	}
}

// The job table is the result cache: a repeat stays a hit as long as
// its record is retained, however many other runs came in between.
func TestRepeatHitsAfterManyRuns(t *testing.T) {
	s := New(Config{Batch: runner.Options{Workers: 2}})
	ctx := context.Background() //bce:ctxshim test
	for i := int64(0); i <= 130; i++ {
		if _, _, err := s.Do(ctx, runRequest(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, hit, err := s.Do(ctx, runRequest(1000)); err != nil || !hit {
		t.Fatalf("repeat after 130 distinct runs: hit=%v err=%v, want a cache hit", hit, err)
	}
}

// MaxJobs is the one retention bound: once a done job's record is
// evicted, its outcome goes with it.
func TestMaxJobsEvictsOutcomes(t *testing.T) {
	s := New(Config{Batch: runner.Options{Workers: 1}, MaxJobs: 4})
	ctx := context.Background() //bce:ctxshim test
	for i := int64(0); i < 6; i++ {
		if _, _, err := s.Do(ctx, runRequest(2000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, hit, err := s.Do(ctx, runRequest(2000)); err != nil || hit {
		t.Fatalf("first of 6 runs under MaxJobs 4: hit=%v err=%v, want a miss", hit, err)
	}
	if runs := s.Stats().Runs; runs != 7 {
		t.Fatalf("Runs = %d, want 7", runs)
	}
}

// Do goes through the same queue bound as Submit: with the one queue
// slot taken, it sheds with ErrQueueFull and counts Shed.
func TestDoShedsWhenQueueFull(t *testing.T) {
	s := New(Config{Batch: runner.Options{Workers: 1}, QueueCap: 1})
	ctx, cancel := context.WithCancel(context.Background()) //bce:ctxshim test
	defer s.Wait()
	defer cancel()
	s.Start(ctx)
	heavy := func(seed int64) Request {
		scn := tinyScenario(seed)
		scn.DurationDays = 1000
		return Request{Kind: KindRun, Scenario: scn}
	}
	running, err := s.Submit(heavy(8))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, running.ID, StateRunning)
	if _, err := s.Submit(heavy(9)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Do(ctx, runRequest(10)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Do with a full queue: err = %v, want ErrQueueFull", err)
	}
	if shed := s.Stats().Shed; shed != 1 {
		t.Fatalf("Shed = %d, want 1", shed)
	}
}

func TestSubmitRequiresStart(t *testing.T) {
	s := New(Config{})
	if _, err := s.Submit(runRequest(1)); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("Submit before Start: %v, want ErrNotStarted", err)
	}
}

func TestSubmitPollOutcome(t *testing.T) {
	s := New(Config{Batch: runner.Options{Workers: 2}})
	ctx, cancel := context.WithCancel(context.Background()) //bce:ctxshim test
	defer cancel()
	s.Start(ctx)
	v, err := s.Submit(runRequest(3))
	if err != nil {
		t.Fatal(err)
	}
	if v.ID == "" || v.State.Terminal() {
		t.Fatalf("ticket = %+v", v)
	}
	waitDone(t, s, v.ID)
	out, finished, err := s.Outcome(v.ID)
	if err != nil || !finished || out == nil || out.Result == nil {
		t.Fatalf("outcome: finished=%v err=%v out=%v", finished, err, out)
	}
	if out.Log == "" {
		t.Fatal("run produced no message log")
	}
	if s.Stats().Runs != 1 {
		t.Fatalf("Runs = %d, want 1", s.Stats().Runs)
	}
}

// A submission identical to a live job must return the same ticket
// instead of a second queue slot.
func TestSubmitDedupsLiveJobs(t *testing.T) {
	s := New(Config{Batch: runner.Options{Workers: 1}})
	// Not started: enqueue manually by starting with a blocked worker.
	ctx, cancel := context.WithCancel(context.Background()) //bce:ctxshim test
	defer cancel()
	s.Start(ctx)
	// A long-ish run keeps the job live while we resubmit.
	scn := tinyScenario(4)
	scn.DurationDays = 0.5
	req := Request{Kind: KindRun, Scenario: scn}
	v1, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if v1.ID != v2.ID {
		t.Fatalf("identical live submissions got tickets %s and %s", v1.ID, v2.ID)
	}
	waitDone(t, s, v1.ID)
}

func TestQueueFullSheds(t *testing.T) {
	s := New(Config{Batch: runner.Options{Workers: 1}, QueueCap: 1})
	ctx, cancel := context.WithCancel(context.Background()) //bce:ctxshim test
	defer cancel()
	s.Start(ctx)
	// Occupy the single worker and the single queue slot, then overflow.
	var tickets []JobView
	shed := 0
	for i := int64(10); i < 20; i++ {
		v, err := s.Submit(runRequest(i))
		if errors.Is(err, ErrQueueFull) {
			shed++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, v)
	}
	if shed == 0 {
		t.Fatal("queue of capacity 1 absorbed 10 submissions without shedding")
	}
	if s.Stats().Shed != shed {
		t.Fatalf("Shed stat = %d, want %d", s.Stats().Shed, shed)
	}
	if ra := s.RetryAfter(); ra < time.Second {
		t.Fatalf("RetryAfter = %v, want >= 1s", ra)
	}
	for _, v := range tickets {
		waitDone(t, s, v.ID)
	}
}

func TestWatchSeesTerminalState(t *testing.T) {
	s := New(Config{Batch: runner.Options{Workers: 1}})
	ctx, cancel := context.WithCancel(context.Background()) //bce:ctxshim test
	defer cancel()
	s.Start(ctx)
	v, err := s.Submit(Request{Kind: KindStudy, StudyScenarios: 2, StudyDays: 0.02, StudySeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancelW, err := s.Watch(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancelW()
	var last Event
	deadline := time.After(60 * time.Second) //bce:wallclock test timeout
	for {
		select {
		case ev, open := <-ch:
			if !open {
				if !last.State.Terminal() {
					t.Fatalf("watch closed at non-terminal state %+v", last)
				}
				if last.State != StateDone {
					t.Fatalf("study ended %+v", last)
				}
				return
			}
			last = ev
		case <-deadline:
			t.Fatalf("no terminal event; last %+v", last)
		}
	}
}

func TestCapWriter(t *testing.T) {
	w := &capWriter{limit: 10}
	n, _ := w.Write([]byte("0123456789ABCDEF"))
	if n != 16 { // reports full write so the logger never errors
		t.Fatalf("n = %d, want 16", n)
	}
	if w.String() != "0123456789" || !w.truncated {
		t.Fatalf("buf = %q truncated=%v", w.String(), w.truncated)
	}
	w2 := &capWriter{limit: 10}
	w2.Write([]byte("short")) //bce:errok capWriter never errors
	if w2.truncated {
		t.Fatal("under-limit write marked truncated")
	}
}

func waitDone(t *testing.T, s *Service, id string) {
	t.Helper()
	waitState(t, s, id, StateDone)
}

// waitState polls the job until it reaches want, failing on a terminal
// state other than want.
func waitState(t *testing.T, s *Service, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second) //bce:wallclock test timeout
	for {
		v, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.State == want {
			return
		}
		if v.State.Terminal() {
			t.Fatalf("job %s ended %s (%s), want %s", id, v.State, v.Err, want)
		}
		if time.Now().After(deadline) { //bce:wallclock test timeout
			t.Fatalf("job %s stuck in %s", id, v.State)
		}
		time.Sleep(5 * time.Millisecond) //bce:wallclock test poll
	}
}
