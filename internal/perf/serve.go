package perf

import (
	"context"
	"net/http/httptest"
	"testing"

	"bce/internal/runner"
	"bce/internal/serve"
	"bce/internal/web"
)

// ServeSuite returns the job-service benchmarks: the async submission
// layer (internal/serve) measured in-process and over HTTP. These land
// in the BENCH ledger so service-layer regressions show up in the same
// trajectory as kernel ones; they are not part of the CI alloc gate.
func ServeSuite() []Bench {
	return []Bench{
		{Name: "serve_cache_hit", Doc: "content-addressed cache hit through Do (fingerprint + job-table lookup)", F: BenchServeCacheHit},
		{Name: "serve_submit_poll", Doc: "async ticket round-trip in-process: submit, watch to done", F: BenchServeSubmitPoll},
		{Name: "serve_loadgen", Doc: "HTTP submit→poll→result cycles against an in-process bceweb; reports p50/p99/rps", F: BenchServeLoadgen},
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

// loadgenRequests is the fixed per-iteration request count of the
// serve_loadgen bench; per-request metrics divide by it.
const loadgenRequests = 16

// BenchServeLoadgen measures the whole service over HTTP: an
// in-process bceweb (4 workers) driven by the closed-loop load
// generator, 16 submit→poll→result cycles per iteration. Reports the
// generator's p50/p99 (ms) and completed-request throughput, which is
// what `bcectl loadgen` reproduces against a live deployment.
func BenchServeLoadgen(b *testing.B) {
	srv := web.NewServer("")
	srv.Svc = serve.New(serve.Config{Batch: runner.Options{Workers: 4}, QueueCap: 64})
	//bce:ctxshim a benchmark is a call-tree root; there is no caller context to thread
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv.Start(ctx)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	opts := serve.LoadgenOptions{
		URL:      ts.URL,
		Requests: loadgenRequests,
		// 8 clients against 4 workers keeps the queue nonempty without
		// tripping load-shedding.
		Concurrency: 8,
	}
	// Prewarm once so the one-off server spin-up (socket, first GC of
	// the pool) stays out of the measured section even at -benchtime 1x.
	if _, err := serve.Loadgen(ctx, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var last *serve.LoadgenResult
	for i := 0; i < b.N; i++ {
		// A fresh seed base per iteration keeps every submission a real
		// emulation; otherwise iteration 2+ would measure only the cache.
		scn := serve.DefaultLoadgenScenario(0)
		scn.Seed = runner.DeriveSeed(9, i+1)
		opts.Scenario = scn
		res, err := serve.Loadgen(ctx, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Failed > 0 {
			b.Fatalf("loadgen failed %d of %d requests", res.Failed, opts.Requests)
		}
		last = res
	}
	b.ReportMetric(float64(last.P50.Microseconds())/1e3, "p50_ms")
	b.ReportMetric(float64(last.P99.Microseconds())/1e3, "p99_ms")
	b.ReportMetric(last.Throughput, "rps")
}
