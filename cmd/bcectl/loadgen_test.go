package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"bce/internal/web"
)

// TestLoadgenAgainstServer drives a started bceweb server with the
// closed-loop load generator through the async API (submit, then wait
// for the job's last event, p50/p99 report), then once more in
// -identical mode so the run takes the content-addressed cache path
// too, and once open-loop at a fixed -rate; loadgen fails if any
// request fails. It waits on the event stream, so it never polls the
// job status. Last, the sync form twice on the same server, whose run
// slots and job table it shares with the async API: the repeat must be
// a cache hit.
func TestLoadgenAgainstServer(t *testing.T) {
	s := web.NewServer("")
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	s.Start(ctx)
	var polls atomic.Int64
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/api/jobs/") {
			polls.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	mustRun(t, "loadgen", "-url", ts.URL, "-n", "20", "-c", "4")
	mustRun(t, "loadgen", "-url", ts.URL, "-n", "10", "-c", "2", "-identical")
	mustRun(t, "loadgen", "-url", ts.URL, "-n", "10", "-rate", "50")
	if n := polls.Load(); n != 0 {
		t.Errorf("loadgen polled GET /api/jobs/ %d times; want it to wait on the event stream", n)
	}

	state, err := os.ReadFile(filepath.Join("..", "..", "testdata", "two_projects.json"))
	if err != nil {
		t.Fatal(err)
	}
	form := url.Values{"state": {string(state)}, "days": {"0.05"}}
	for _, want := range []string{"Figures of merit", "served from the result cache"} {
		resp, err := http.PostForm(ts.URL+"/run", form)
		if err != nil {
			t.Fatal(err)
		}
		page, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /run: status %d (err %v)", resp.StatusCode, err)
		}
		if !strings.Contains(string(page), want) {
			t.Fatalf("POST /run page lacks %q", want)
		}
	}
}
