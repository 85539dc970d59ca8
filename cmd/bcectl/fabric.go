// The distributed-study subcommands. `study -shards N` is the
// one-machine convenience: an in-process coordinator plus N spawned
// `study-worker` children. `study-coord` and `study-worker` are the
// same pieces as separate processes for anything longer-lived — kill
// and restart any of them; the shard checkpoints and the coordinator
// dir make the study converge to the same bits regardless.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"syscall"
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
		Seed:            p.Seed,
		Combos:          p.Combos,
		Population:      p.Population,
		Scenarios:       p.Scenarios,
		Shards:          shards,
		BatchSize:       p.BatchSize,
		CheckpointEvery: p.CheckpointEvery,
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

// runShardedStudy is `study -shards N`: coordinator in-process on a
// loopback port, N child worker processes, merged tables at the end.
// Interrupt it and rerun the same command to resume — shard state
// lives next to the checkpoint in <checkpoint>.shards/.
func runShardedStudy(ctx context.Context, p population.Params, shards int, checkpoint string, progress bool, workers int, rep *report.Report) error {
	if checkpoint == "" {
		return fmt.Errorf("study -shards needs -checkpoint: it anchors the merged result and the per-shard state dir")
	}
	dir := checkpoint + ".shards"
	spec := specFromParams(p, shards)
	coord, err := fabric.NewCoordinator(spec, fabric.CoordinatorOptions{
		Dir: dir,
		Log: stderrLog(progress),
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: coord.Handler()}
	go srv.Serve(ln) //nolint:errcheck // Serve always returns non-nil on Close
	defer srv.Close()
	url := "http://" + ln.Addr().String()

	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// Split the batch worker budget across the child processes; each
	// child still parallelizes within its shard.
	per := workers / shards
	if per < 1 {
		per = 1
	}
	procs := make([]*exec.Cmd, 0, shards)
	for i := 0; i < shards; i++ {
		args := []string{
			"-workers", strconv.Itoa(per),
			"-progress=" + strconv.FormatBool(progress),
			"study-worker",
			"-coord", url,
			"-name", fmt.Sprintf("shard-worker-%d", i),
			"-dir", dir,
		}
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stderr = os.Stderr
		cmd.Stdout = os.Stderr
		// On interrupt, SIGTERM the children so they checkpoint between
		// batches; escalate to SIGKILL only if they dawdle.
		cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
		cmd.WaitDelay = 10 * time.Second
		if err := cmd.Start(); err != nil {
			for _, sib := range procs {
				_ = sib.Process.Signal(syscall.SIGTERM) //bce:errok best-effort cleanup of already-started siblings
			}
			return fmt.Errorf("starting worker %d: %w", i, err)
		}
		procs = append(procs, cmd)
	}

	var workerErr error
	for i, cmd := range procs {
		if err := cmd.Wait(); err != nil && workerErr == nil && ctx.Err() == nil {
			workerErr = fmt.Errorf("worker %d: %w", i, err)
		}
	}

	select {
	case <-coord.Done():
	default:
		if err := ctx.Err(); err != nil {
			s := coord.Status()
			fmt.Fprintf(os.Stderr, "sharded study interrupted at %d/%d scenarios; rerun the same command to resume\n",
				s.ScenariosDone, s.Scenarios)
			return err
		}
		if workerErr != nil {
			return workerErr
		}
		return fmt.Errorf("workers exited but the study is incomplete (see %s)", dir)
	}

	st, err := coord.Result()
	if err != nil {
		return err
	}
	if err := population.SaveCheckpoint(checkpoint, st); err != nil {
		return fmt.Errorf("writing merged checkpoint: %w", err)
	}
	printStudy(st, rep)
	return nil
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
		checkpoint = fs.String("checkpoint", "", "also write the merged study to this checkpoint file")
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
	// worker asks within it (a waiting one every half TTL, one retrying
	// a refused connection every second, a folding one at each renewal).
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
	w := &fabric.Worker{
		Coord: *coordURL,
		Name:  *name,
		Dir:   *dir,
		Log:   stderrLog(progress),
	}
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
