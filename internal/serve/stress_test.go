package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"bce/internal/runner"
)

// TestStopFailsQueuedJobsAndClosesWatchers is the regression test for
// the shutdown leak: a cancelled Start context must not leave a queued
// job StateQueued forever, with its watcher channels never closed — an
// SSE client would hang until its own timeout. After Wait returns,
// every ticket must be terminal, every watcher channel closed, and
// Submit must shed with ErrNotStarted.
func TestStopFailsQueuedJobsAndClosesWatchers(t *testing.T) {
	s := New(Config{Batch: runner.Options{Workers: 1}, QueueCap: 8})
	ctx, cancel := context.WithCancel(context.Background()) //bce:ctxshim test
	s.Start(ctx)

	var ids []string
	var chans []<-chan Event
	for i := int64(100); i < 106; i++ {
		v, err := s.Submit(runRequest(i))
		if err != nil {
			t.Fatal(err)
		}
		ch, _, err := s.Watch(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
		chans = append(chans, ch)
	}

	cancel()
	s.Wait()

	for _, id := range ids {
		v, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if !v.State.Terminal() {
			t.Errorf("job %s still %s after Wait; shutdown left it dangling", id, v.State)
		}
	}
	for i, ch := range chans {
		closed := false
		timeout := time.After(10 * time.Second) //bce:wallclock test timeout
	drain:
		for {
			select {
			case _, open := <-ch:
				if !open {
					closed = true
					break drain
				}
			case <-timeout:
				break drain
			}
		}
		if !closed {
			t.Errorf("watcher %d (job %s) never closed after Wait", i, ids[i])
		}
	}
	if _, err := s.Submit(runRequest(999)); !errors.Is(err, ErrNotStarted) {
		t.Errorf("Submit after shutdown: err = %v, want ErrNotStarted", err)
	}
}

// TestConcurrentStress hammers one service from parallel clients —
// mixed Submit (with deliberate fingerprint collisions to exercise
// dedup and the cache), Job, Outcome, Watch/unwatch — then stops it,
// asserting the whole run finishes inside a deadline (no deadlock
// under -race) and that the goroutine count returns to its baseline
// after Stop (no leaked workers or watchers).
func TestConcurrentStress(t *testing.T) {
	before := runtime.NumGoroutine()

	s := New(Config{Batch: runner.Options{Workers: 4}, QueueCap: 32})
	ctx, cancel := context.WithCancel(context.Background()) //bce:ctxshim test
	s.Start(ctx)

	const clients = 8
	const iters = 20
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					// Six distinct seeds across 8 clients: collisions are
					// guaranteed, so dedup and cache paths run under load.
					v, err := s.Submit(runRequest(int64(200 + (c+i)%6)))
					if errors.Is(err, ErrQueueFull) {
						continue
					}
					if err != nil {
						t.Errorf("client %d: Submit: %v", c, err)
						return
					}
					if _, err := s.Job(v.ID); err != nil {
						t.Errorf("client %d: Job: %v", c, err)
						return
					}
					if _, _, err := s.Outcome(v.ID); err != nil && v.State != StateFailed {
						// Outcome errors only for failed jobs; a terminal
						// failure here would be a real bug.
						t.Errorf("client %d: Outcome(%s): %v", c, v.ID, err)
						return
					}
					ch, cancelW, err := s.Watch(v.ID)
					if err != nil {
						t.Errorf("client %d: Watch: %v", c, err)
						return
					}
					// Half the watchers detach immediately, half drain to
					// close — both unsubscribe paths stay hot.
					if i%2 == 0 {
						cancelW()
					} else {
						for range ch {
						}
						cancelW()
					}
					_ = s.Stats()
					_ = s.RetryAfter()
				}
			}(c)
		}
		wg.Wait()
	}()

	select {
	case <-done:
	case <-time.After(120 * time.Second): //bce:wallclock deadlock guard
		t.Fatal("stress run deadlocked: clients did not finish within 120s")
	}

	cancel()
	waited := make(chan struct{})
	go func() { s.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(60 * time.Second): //bce:wallclock deadlock guard
		t.Fatal("Wait did not return after cancel: a job goroutine is stuck")
	}

	// The job goroutines and any watcher-bound goroutines must all be
	// gone; poll briefly to let exiting goroutines clear the scheduler.
	const slack = 10
	deadline := time.Now().Add(5 * time.Second) //bce:wallclock test poll deadline
	for {
		if g := runtime.NumGoroutine(); g <= before+slack {
			return
		}
		if time.Now().After(deadline) { //bce:wallclock test poll deadline
			t.Fatalf("goroutines: %d before, %d after Stop (slack %d): leak", before, runtime.NumGoroutine(), slack)
		}
		time.Sleep(20 * time.Millisecond) //bce:wallclock test poll
	}
}
