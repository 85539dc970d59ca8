// The distributed-study subcommands: `study-coord` leases a study's
// shards out and merges what its workers report, and `study-worker`
// folds leased shards, each as its own process on any machine. Kill and
// restart any of them; the shard checkpoints and the coordinator dir
// make the study converge to the same bits regardless. On one machine,
// plain `study` is the one way to run a study.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"bce/internal/fabric"
	"bce/internal/population"
	"bce/internal/report"
	"bce/internal/runner"
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

// stderrLog returns a coordinator/worker log sink on stderr, or a
// no-op when quiet.
func stderrLog(verbose bool) func(string, ...any) {
	if !verbose {
		return nil
	}
	return func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
}

// runStudyCoord is `study-coord`: the coordinator as its own process,
// serving workers on -addr until every shard reports.
func runStudyCoord(ctx context.Context, args []string, progress bool, rep *report.Report) error {
	fs := flag.NewFlagSet("study-coord", flag.ContinueOnError)
	pf := addPopFlags(fs)
	var (
		shards     = fs.Int("shards", 2, "number of contiguous scenario shards to lease out")
		addr       = fs.String("addr", "127.0.0.1:9931", "listen address for workers")
		dir        = fs.String("dir", "", "state dir for the spec and reported shards (required)")
		checkpoint = fs.String("checkpoint", "", "also write the merged study to this checkpoint file; one of another study is refused")
		leaseSecs  = fs.Float64("lease-secs", fabric.DefaultLeaseTTL.Seconds(), "lease TTL before a silent worker's shard is re-granted")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: bcectl study-coord -dir DIR [flags]")
		fs.PrintDefaults()
	}
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
	// would resume it; refuse another study's before -dir is made.
	p.CheckpointPath = *checkpoint
	if _, err := population.StartState(p); err != nil {
		return err
	}
	ttl := time.Duration(*leaseSecs * float64(time.Second))
	if ttl <= 0 {
		ttl = fabric.DefaultLeaseTTL
	}
	coord, err := fabric.NewCoordinator(specFromParams(p, *shards), fabric.CoordinatorOptions{
		Dir:      *dir,
		LeaseTTL: ttl,
		Log:      stderrLog(true),
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
	serving := time.Now()
	go func() { errCh <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "study-coord: serving %d scenarios in %d shards on http://%s\n",
		p.Scenarios, *shards, ln.Addr())

	select {
	case <-coord.Done():
	case err := <-errCh:
		return err
	case <-ctx.Done():
		s := coord.Status()
		fmt.Fprintf(os.Stderr, "study-coord interrupted: %d/%d shards reported; restart with the same -dir to continue\n",
			s.Done, s.Shards)
		srv.Close()
		return ctx.Err()
	}
	// A worker exits only on a done reply and takes a refused connection
	// for a coordinator restart, so keep answering done for one lease
	// TTL. Stop sooner once every worker heard from has had its reply,
	// but not before this process has served one TTL: any other live
	// worker asks within it (a waiting one or one retrying a refused
	// connection every second, a folding one at each renewal).
	linger := time.NewTimer(ttl)
	select {
	case <-linger.C:
	case <-ctx.Done():
	case <-coord.Drained():
		select {
		case <-time.After(time.Until(serving.Add(ttl))):
		case <-linger.C:
		case <-ctx.Done():
		}
	}
	linger.Stop()
	srv.Close()

	st, err := coord.Result()
	if err != nil {
		return err
	}
	if *checkpoint != "" {
		if err := population.SaveCheckpoint(*checkpoint, st); err != nil {
			return fmt.Errorf("writing merged checkpoint: %w", err)
		}
	}
	printStudy(st, rep)
	return nil
}

// runStudyWorker is `study-worker`: lease shards from a coordinator
// and fold them until the study is done.
func runStudyWorker(ctx context.Context, args []string, progress bool, opts []runner.Option) error {
	fs := flag.NewFlagSet("study-worker", flag.ContinueOnError)
	var (
		coordURL = fs.String("coord", "", "coordinator base URL, e.g. http://127.0.0.1:9931 (required)")
		name     = fs.String("name", fmt.Sprintf("worker-%d", os.Getpid()), "worker name; reuse it on restart to reclaim the same shard")
		dir      = fs.String("dir", "", "local dir for shard checkpoints (required; reuse it on restart to resume mid-shard)")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: bcectl [flags] study-worker -coord URL -dir DIR [flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordURL == "" || *dir == "" {
		return fmt.Errorf("study-worker needs -coord and -dir")
	}
	w := &fabric.Worker{Coord: *coordURL, Name: *name, Dir: *dir, Log: stderrLog(progress)}
	if progress {
		w.Progress = func(shard, done, total int) {
			fmt.Fprintf(os.Stderr, "%s: shard %d: %d/%d scenarios\n", *name, shard, done, total)
		}
	}
	err := w.Run(ctx, opts...)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "%s: interrupted; restart with the same -name and -dir to resume\n", *name)
	}
	return err
}
