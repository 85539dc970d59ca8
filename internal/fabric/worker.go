// The worker: a sequential lease → fold → report loop around the
// single-process study engine. Everything crash-tolerance-related is
// delegated — the shard fold checkpoints through the population
// package's atomic files, lease arbitration lives in the coordinator —
// so the worker itself is just a careful HTTP client: it folds each
// leased shard with population.Run on the shard's checkpoint in its
// dir (which resumes it, or refuses a stale one), renews its lease from
// the fold loop's progress callback, and abandons the shard the moment
// the coordinator says the lease is gone.
package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"bce/internal/population"
	"bce/internal/runner"
	"bce/internal/serve"
)

// errLeaseLost marks a shard abandoned because the coordinator granted
// it elsewhere (or already has its result); the worker loops back to
// lease something else. It never escapes Run.
var errLeaseLost = errors.New("fabric: lease lost")

// Worker runs shards against a coordinator until the study completes.
type Worker struct {
	// Coord is the coordinator base URL, e.g. "http://127.0.0.1:9931".
	Coord string
	// Name identifies this worker's leases; restarting a worker under
	// the same name reclaims its shard immediately. Required.
	Name string
	// Dir is where shard checkpoints live (one file per shard). A
	// worker restarted with the same Dir resumes mid-shard. Required.
	Dir string
	// Log, when set, receives one line per lease/progress/report event.
	Log func(format string, args ...any)
	// Progress, when set, observes (shard, done, total) after every
	// folded batch, once the coordinator has been told — the CLI's
	// progress meter.
	Progress func(shard, done, total int)
	// RunBatch substitutes the execution engine (tests, CI smoke);
	// nil means the real runner.Batch.
	RunBatch func(ctx context.Context, specs []runner.Spec, opts ...runner.Option) ([]runner.RunResult, error)
}

// Run leases and folds shards until the coordinator reports the study
// done (returns nil), the context is canceled (returns ctx.Err(); the
// current shard's checkpoint makes the work resumable), or something
// unrecoverable happens — a stale local checkpoint, a rejected report.
// opts are passed through to the runner for every batch.
func (w *Worker) Run(ctx context.Context, opts ...runner.Option) error {
	if w.Coord == "" || w.Name == "" || w.Dir == "" {
		return fmt.Errorf("fabric: worker needs Coord, Name and Dir")
	}
	if err := os.MkdirAll(w.Dir, 0o755); err != nil {
		return fmt.Errorf("fabric: worker dir: %w", err)
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		reply, retryAfter, err := w.lease(ctx)
		if err != nil {
			// Coordinator unreachable: a restart in progress looks the
			// same as a crash; keep knocking politely.
			w.logf("fabric: %s: lease: %v (retrying)", w.Name, err)
			if serr := w.sleep(ctx, retryAfter); serr != nil {
				return serr
			}
			continue
		}
		switch reply.Status {
		case StatusDone:
			return nil
		case StatusWait:
			if serr := w.sleep(ctx, retryAfter); serr != nil {
				return serr
			}
		case StatusLease:
			err := w.runShard(ctx, reply, opts...)
			switch {
			case errors.Is(err, errLeaseLost):
				w.logf("fabric: %s: shard %d lease lost; re-leasing", w.Name, reply.Shard)
			case err != nil:
				return err
			}
		default:
			return fmt.Errorf("fabric: coordinator sent unknown lease status %q", reply.Status)
		}
	}
}

// runShard folds one leased shard to completion and reports it.
func (w *Worker) runShard(ctx context.Context, lease LeaseReply, opts ...runner.Option) error {
	if lease.Spec == nil {
		return fmt.Errorf("fabric: lease for shard %d carried no spec", lease.Shard)
	}
	p, err := lease.Spec.Params(lease.Shard)
	if err != nil {
		return err
	}
	p.RunBatch = w.RunBatch
	p.CheckpointPath = filepath.Join(w.Dir, fmt.Sprintf("shard-%03d.ck.json", lease.Shard))

	// Renew the lease from the fold loop itself: progress doubles as
	// the heartbeat, and a conflict response means another worker owns
	// the shard now — stop folding it immediately.
	shardCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	lost := false
	p.Progress = func(done, total int) {
		status, _, err := w.post(shardCtx, "/v1/progress",
			ProgressRequest{Worker: w.Name, Shard: lease.Shard, Done: done}, &struct{}{})
		switch {
		case err != nil:
			// Unreachable coordinator is not lease loss; the fold keeps
			// going and the report retries will sort it out.
			w.logf("fabric: %s: progress: %v", w.Name, err)
		case status == http.StatusConflict:
			lost = true
			cancel()
		}
		if w.Progress != nil {
			w.Progress(lease.Shard, done, total)
		}
	}

	// A checkpoint left in w.Dir by an earlier lease of this shard is
	// resumed; one from another study is refused, loudly, by Run.
	w.logf("fabric: %s: folding shard %d [%d,%d)", w.Name, lease.Shard, lease.Lo, lease.Lo+lease.N)
	st, err := population.Run(shardCtx, p, opts...)
	if err != nil {
		if lost {
			return errLeaseLost
		}
		return err
	}
	return w.report(ctx, lease.Shard, st)
}

// report delivers the finished shard, retrying transient failures —
// the one HTTP call that must not give up early, because the folded
// work is sitting in it.
func (w *Worker) report(ctx context.Context, shard int, st *population.Study) error {
	req := ReportRequest{Worker: w.Name, Shard: shard, Study: st}
	var denied errorReply
	for attempt := 0; ; attempt++ {
		status, retryAfter, err := w.post(ctx, "/v1/report", req, &denied)
		switch {
		case err == nil && status == http.StatusOK:
			w.logf("fabric: %s: reported shard %d (%d scenarios)", w.Name, shard, st.Done)
			return nil
		case err == nil && status == http.StatusConflict:
			// The coordinator has a result for this shard already. If it
			// matched ours we'd have gotten 200 (idempotent re-delivery),
			// so this is a real disagreement — surface it, loudly.
			return fmt.Errorf("fabric: coordinator rejected shard %d: %s", shard, denied.Error)
		case err == nil && status != http.StatusOK:
			w.logf("fabric: %s: report shard %d: status %d: %s (retrying)", w.Name, shard, status, denied.Error)
		default:
			w.logf("fabric: %s: report shard %d: %v (retrying)", w.Name, shard, err)
		}
		if serr := w.sleep(ctx, retryAfter); serr != nil {
			return serr
		}
	}
}

// lease asks the coordinator for work.
func (w *Worker) lease(ctx context.Context) (LeaseReply, time.Duration, error) {
	var reply LeaseReply
	status, retryAfter, err := w.post(ctx, "/v1/lease", LeaseRequest{Worker: w.Name}, &reply)
	if err != nil {
		return LeaseReply{}, retryAfter, err
	}
	if status != http.StatusOK {
		return LeaseReply{}, retryAfter, fmt.Errorf("fabric: lease status %d", status)
	}
	return reply, retryAfter, nil
}

// post sends one JSON request and decodes the JSON reply. The returned
// delay is the server's Retry-After (or the serve package's default),
// already clamped to sane bounds — every retry path sleeps on it.
func (w *Worker) post(ctx context.Context, path string, in, out any) (status int, retryAfter time.Duration, err error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, serve.DefaultRetryAfter, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Coord+path, bytes.NewReader(body))
	if err != nil {
		return 0, serve.DefaultRetryAfter, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, serve.DefaultRetryAfter, err
	}
	defer resp.Body.Close() //bce:errok read-side close after full drain
	retryAfter = serve.ParseRetryAfter(resp.Header.Get("Retry-After"))
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return resp.StatusCode, retryAfter, err
	}
	if out != nil && len(data) > 0 {
		if jerr := json.Unmarshal(data, out); jerr != nil {
			return resp.StatusCode, retryAfter, fmt.Errorf("fabric: bad reply from %s: %w", path, jerr)
		}
	}
	return resp.StatusCode, retryAfter, nil
}

// sleep waits d or until the context dies.
func (w *Worker) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		d = serve.DefaultRetryAfter
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d): //bce:wallclock backing off against a real remote coordinator
		return nil
	}
}

func (w *Worker) logf(format string, args ...any) {
	if w.Log != nil {
		w.Log(format, args...)
	}
}
