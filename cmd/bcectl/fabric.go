// The distributed-study subcommands: `study-coord` leases a study's
// shards out and merges what its workers report, and `study-worker`
// folds leased shards, each as its own process on any machine. Kill and
// restart any of them; the shard checkpoints and the coordinator dir
// make the study converge to the same bits regardless. On one machine,
// plain `study` is the one way to run a study.
package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"bce/internal/fabric"
	"bce/internal/population"
)

// specFromParams lifts the single-process study parameters into a
// sharded-study spec.
func specFromParams(p population.Params, shards int) fabric.Spec {
	return fabric.Spec{
		Seed:       p.Seed,
		Combos:     p.Combos,
		Population: p.Population,
		Scenarios:  p.Scenarios,
		Shards:     shards,
		BatchSize:  p.BatchSize,
	}
}

// logf writes one line to stderr: the log sink of the fabric's
// coordinator and workers and of the bench suite.
func (c *cli) logf(format string, args ...any) {
	fmt.Fprintf(c.stderr, format+"\n", args...)
}

// studyCoord is `study-coord`: the coordinator as its own process,
// serving workers on -addr until every shard reports.
func (c *cli) studyCoord(ctx context.Context, args []string) error {
	fs := c.flagSet("study-coord", "usage: bcectl study-coord -dir DIR [flags]")
	pf := addPopFlags(fs)
	var (
		shards     = fs.Int("shards", 2, "number of contiguous scenario shards to lease out")
		addr       = fs.String("addr", "127.0.0.1:9931", "listen address for workers")
		dir        = fs.String("dir", "", "state dir for the spec and reported shards (required)")
		checkpoint = fs.String("checkpoint", "", "also write the merged study to this checkpoint file; one of another study is refused")
		leaseSecs  = fs.Float64("lease-secs", fabric.DefaultLeaseTTL.Seconds(), "lease TTL before a silent worker's shard is re-granted")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("study-coord needs -dir: it holds the spec and survives restarts")
	}
	p, err := pf.params()
	if err != nil {
		return err
	}
	// The merged study replaces -checkpoint only where a `study` rerun
	// would resume it; refuse another study's, or one that cannot be
	// written, before -dir is made and the study folded.
	p.CheckpointPath = *checkpoint
	if _, err := population.StartState(p); err != nil {
		return err
	}
	if *checkpoint != "" {
		if _, err := os.Stat(filepath.Dir(*checkpoint)); err != nil {
			return fmt.Errorf("cannot write -checkpoint %s: %w", *checkpoint, err)
		}
	}
	ttl := time.Duration(*leaseSecs * float64(time.Second))
	if ttl <= 0 {
		ttl = fabric.DefaultLeaseTTL
	}
	coord, err := fabric.NewCoordinator(specFromParams(p, *shards), fabric.CoordinatorOptions{
		Dir:      *dir,
		LeaseTTL: ttl,
		Log:      c.logf,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: coord.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	c.logf("study-coord: serving %d scenarios in %d shards on http://%s",
		p.Scenarios, *shards, ln.Addr())

	select {
	case <-coord.Done():
	case err := <-errCh:
		return err
	case <-ctx.Done():
		s := coord.Status()
		c.logf("study-coord interrupted: %d/%d shards reported; restart with the same -dir to continue",
			s.Done, s.Shards)
		srv.Close()
		return ctx.Err()
	}
	// A worker exits only on a done reply and takes a refused connection
	// for a coordinator restart, so keep answering done until every
	// worker that may still ask has had its reply (Drained), or for one
	// lease TTL, in which any live worker asks: a waiting one or one
	// retrying a refused connection every second, a folding one at each
	// renewal.
	linger := time.NewTimer(ttl)
	select {
	case <-coord.Drained():
	case <-linger.C:
	case <-ctx.Done():
	}
	linger.Stop()
	// Shut down rather than Close: a handler may still be writing a
	// reply when the TTL ends, and a worker whose done reply is cut off
	// retries the closed port forever.
	shutdown, cancel := context.WithTimeout(ctx, time.Second)
	srv.Shutdown(shutdown) //bce:errok past the bound, exiting closes what is left
	cancel()

	st, err := coord.Result()
	if err != nil {
		return err
	}
	if *checkpoint != "" {
		if err := population.SaveCheckpoint(*checkpoint, st); err != nil {
			return fmt.Errorf("writing merged checkpoint: %w", err)
		}
	}
	c.printStudy(st)
	return nil
}

// studyWorker is `study-worker`: lease shards from a coordinator and
// fold them until the study is done.
func (c *cli) studyWorker(ctx context.Context, args []string) error {
	fs := c.flagSet("study-worker", "usage: bcectl [flags] study-worker -coord URL -dir DIR [flags]")
	var (
		coordURL = fs.String("coord", "", "coordinator base URL, e.g. http://127.0.0.1:9931 (required)")
		name     = fs.String("name", fmt.Sprintf("worker-%d", os.Getpid()), "worker name; reuse it on restart to reclaim the same shard")
		dir      = fs.String("dir", "", "local dir for shard checkpoints (required; reuse it on restart to resume mid-shard)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordURL == "" || *dir == "" {
		return fmt.Errorf("study-worker needs -coord and -dir")
	}
	w := &fabric.Worker{Coord: *coordURL, Name: *name, Dir: *dir}
	if c.progress {
		w.Log = c.logf
		w.Progress = func(shard, done, total int) {
			c.logf("%s: shard %d: %d/%d scenarios", *name, shard, done, total)
		}
	}
	err := w.Run(ctx, c.opts...)
	if interrupted(err) {
		c.logf("%s: interrupted; restart with the same -name and -dir to resume", *name)
	}
	return err
}
