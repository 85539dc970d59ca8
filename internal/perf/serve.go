package perf

import (
	"context"
	"testing"

	"bce/internal/runner"
	"bce/internal/serve"
)

// ServeSuite returns the job-service benchmarks: the async submission
// layer (internal/serve) measured in-process. These land in the BENCH
// ledger so service-layer regressions show up in the same trajectory as
// kernel ones; they are not part of the CI alloc gate.
func ServeSuite() []Bench {
	return []Bench{
		{Name: "serve_cache_hit", Doc: "content-addressed cache hit through Do (fingerprint + job-table lookup)", F: BenchServeCacheHit},
		{Name: "serve_submit_poll", Doc: "async ticket round-trip in-process: submit, watch to done", F: BenchServeSubmitPoll},
	}
}

// benchRequest is the fixed tiny submission the serve benches reuse.
func benchRequest(seed int64) serve.Request {
	s := serve.DefaultLoadgenScenario(0.02)
	s.Seed = seed
	return serve.Request{Kind: serve.KindRun, Scenario: s}
}

// BenchServeCacheHit measures the cache-hit path end to end: request
// fingerprinting plus the job-table lookup, no emulation. This is the cost
// every duplicate submission pays, so it must stay trivial next to a
// run.
func BenchServeCacheHit(b *testing.B) {
	svc := serve.New(serve.Config{Batch: runner.Options{Workers: 1}})
	//bce:ctxshim a benchmark is a call-tree root; there is no caller context to thread
	ctx := context.Background()
	req := benchRequest(1)
	if _, _, err := svc.Do(ctx, req); err != nil { // prewarm: first Do emulates and fills the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, hit, err := svc.Do(ctx, req)
		if err != nil || !hit {
			b.Fatalf("hit=%v err=%v", hit, err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "hits/s")
}

// BenchServeSubmitPoll measures the full async ticket machinery
// in-process: enqueue a distinct tiny run, watch it to completion.
// Includes one real emulation per iteration, so it tracks queue and
// event-fanout overhead on top of the kernel floor.
func BenchServeSubmitPoll(b *testing.B) {
	svc := serve.New(serve.Config{Batch: runner.Options{Workers: 2}, QueueCap: 4, MaxJobs: 16})
	//bce:ctxshim a benchmark is a call-tree root; there is no caller context to thread
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc.Start(ctx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := svc.Submit(benchRequest(runner.DeriveSeed(7, i)))
		if err != nil {
			b.Fatal(err)
		}
		ch, cancelW, err := svc.Watch(v.ID)
		if err != nil {
			b.Fatal(err)
		}
		for range ch {
		}
		cancelW()
		if view, err := svc.Job(v.ID); err != nil || view.State != serve.StateDone {
			b.Fatalf("job ended %+v (%v)", view, err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}
