// Command bceweb serves the emulator's web interface (paper §4.3):
// volunteers paste their BOINC client_state.xml (or a JSON scenario),
// select policies, and get the figures of merit, message log, and an
// SVG timeline. Uploaded inputs are saved for later debugging.
//
// Submissions flow through a job service (internal/serve): a bounded
// queue in front of a fixed number of run slots, a job table that
// doubles as a content-addressed result cache, and explicit
// load-shedding (429 + Retry-After) when the queue is full. Machine
// clients submit via POST /api/run and poll /api/jobs/{id}; browsers
// get /jobs/{id} progress pages.
//
// Usage:
//
//	bceweb -addr :8080 -save uploads/ -workers 4 -queue 64
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bce/internal/runner"
	"bce/internal/serve"
	"bce/internal/web"
)

func main() {
	var (
		addr    = flag.String("addr", "localhost:8080", "listen address")
		save    = flag.String("save", "", "directory to save uploaded scenarios ('' = don't save)")
		timeout = flag.Duration("run-timeout", web.DefaultRunTimeout,
			"wall-clock cap per emulation (0 = only the request context applies)")
		workers  = flag.Int("workers", 0, "emulations run at once, sync and async together (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 64, "queued-job capacity before load-shedding kicks in")
		syncDays = flag.Float64("sync-days", 2, "emulated-day threshold under which /run completes synchronously")
	)
	flag.Parse()
	srv := web.NewServer(*save)
	srv.SyncDays = *syncDays
	srv.Svc = serve.New(serve.Config{
		Batch:    runner.Options{Workers: *workers},
		QueueCap: *queue,
	})
	srv.Svc.RunTimeout = *timeout

	// Ctrl-C / SIGTERM drains: stop accepting, cancel the submitted
	// jobs, wait for in-flight emulations to stop at their next
	// simulator event.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv.Start(ctx)

	// Profiling endpoints ride alongside the app so a slow emulation
	// can be profiled in place (go tool pprof http://host/debug/pprof/profile).
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	hs := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(sctx) //bce:errok best-effort drain on the way out
	}()
	fmt.Printf("bceweb listening on http://%s/ (%d workers, queue %d)\n",
		*addr, srv.Svc.Workers(), srv.Svc.QueueCap())
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "bceweb:", err)
		os.Exit(1)
	}
	srv.Svc.Wait()
}
