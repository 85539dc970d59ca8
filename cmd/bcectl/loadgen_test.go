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
	"testing"

	"bce/internal/web"
)

// TestLoadgenAgainstServer drives a started bceweb server with the
// closed-loop load generator through the async API (submit, poll,
// result, p50/p99 report), then once more in -identical mode so the
// run takes the content-addressed cache path too; loadgen fails if any
// request fails. Last, the sync form twice on the same server, whose
// run slots and job table it shares with the async API: the repeat
// must be a cache hit.
func TestLoadgenAgainstServer(t *testing.T) {
	s := web.NewServer("")
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	mustRun(t, "loadgen", "-url", ts.URL, "-n", "20", "-c", "4")
	mustRun(t, "loadgen", "-url", ts.URL, "-n", "10", "-c", "2", "-identical")

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
