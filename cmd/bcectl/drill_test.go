package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// proc is one started process of the drill and what it printed.
type proc struct {
	cmd            *exec.Cmd
	stdout, stderr bytes.Buffer
	err            error         // Wait's result, once done is closed
	done           chan struct{} // closed when the process has exited
}

// start runs name with args in the background; the test's cleanup
// kills it if it still runs.
func start(t *testing.T, name string, args ...string) *proc {
	t.Helper()
	p := &proc{cmd: exec.Command(name, args...), done: make(chan struct{})}
	p.cmd.Stdout, p.cmd.Stderr = &p.stdout, &p.stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(func() {
		p.cmd.Process.Kill() //bce:errok it may have exited already
		<-p.done
	})
	return p
}

// wait returns the process's exit error once it has exited, or kills
// it and fails the test when ctx ends first.
func (p *proc) wait(ctx context.Context, t *testing.T, what string) error {
	t.Helper()
	select {
	case <-p.done:
		return p.err
	case <-ctx.Done():
		p.cmd.Process.Kill() //bce:errok it may have exited meanwhile
		<-p.done
		t.Fatalf("%s still running: %v\nstderr:\n%s", what, ctx.Err(), p.stderr.String())
		return nil
	}
}

// mustExit waits for a process that must exit 0 and returns its stdout.
func (p *proc) mustExit(ctx context.Context, t *testing.T, what string) string {
	t.Helper()
	if err := p.wait(ctx, t, what); err != nil {
		t.Fatalf("%s: %v\nstderr:\n%s", what, err, p.stderr.String())
	}
	return p.stdout.String()
}

// poll checks cond every interval until it holds or timeout passes.
// The drill acts next either way; the check after it fails if it had
// to act early.
func poll(timeout, interval time.Duration, cond func() bool) {
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline) && !cond(); {
		time.Sleep(interval)
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func glob(t *testing.T, pattern string) []string {
	t.Helper()
	m, err := filepath.Glob(pattern)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func sameFile(t *testing.T, a, b string) {
	t.Helper()
	da, errA := os.ReadFile(a)
	db, errB := os.ReadFile(b)
	if errA != nil || errB != nil || !bytes.Equal(da, db) {
		t.Fatalf("%s and %s differ (errs %v, %v)", a, b, errA, errB)
	}
}

// TestProcessDrill runs what needs real processes and signals, from
// binaries built with the local toolchain. First a study member
// replayed alone: scengen writes scenarios 0..2 of seed 9 (scenario i
// of a `bcectl study -seed 9`), bce runs one of them, and the
// population example runs a small study. Then the distributed study's
// crash drill (DESIGN.md §14.3), against a single-process reference:
// a plain study is interrupted with SIGINT once its checkpoint exists
// and rerun to completion; then a coordinator and two workers, one
// worker SIGKILLed mid-run and restarted under the same name and dir,
// then the coordinator itself SIGKILLed after its first shard report
// and restarted on the same -dir. Every process must exit 0 on its
// own, and each checkpoint and its printed tables must be bit-identical
// to the reference.
func TestProcessDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four binaries and runs the drill's processes for about ten seconds")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to build the binaries with")
	}
	bin, dir := t.TempDir(), t.TempDir()
	build := exec.Command(goTool, "build", "-o", bin+string(filepath.Separator),
		"./cmd/bcectl", "./cmd/bce", "./cmd/scengen", "./examples/population")
	build.Dir = filepath.Join("..", "..")
	build.Env = append(os.Environ(), "GOPROXY=off")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	bcectlBin := filepath.Join(bin, "bcectl")
	minute, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// A study member replayed alone, and the population example.
	pop := filepath.Join(dir, "pop")
	start(t, filepath.Join(bin, "scengen"), "-seed", "9", "-days", "0.05", "-n", "3", "-out", pop).mustExit(minute, t, "scengen")
	start(t, filepath.Join(bin, "bce"), "-json", "-sched", "JS-WRR", "-fetch", "JF-HYSTERESIS",
		filepath.Join(pop, "pop-0000002.json")).mustExit(minute, t, "bce")
	start(t, filepath.Join(bin, "population")).mustExit(minute, t, "the population example")

	// The reference, then the same study interrupted once its
	// checkpoint exists and rerun.
	study := func(ck string) *proc {
		return start(t, bcectlBin, "study", "-n", "60", "-days", "0.05", "-seed", "9", "-batch", "5", "-checkpoint", ck)
	}
	refCk, intCk, distCk := filepath.Join(dir, "ref-ck.json"), filepath.Join(dir, "int-ck.json"), filepath.Join(dir, "dist-ck.json")
	ref := study(refCk).mustExit(minute, t, "the reference study")

	interrupted := study(intCk)
	poll(10*time.Second, 10*time.Millisecond, func() bool { return exists(intCk) })
	if err := interrupted.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if interrupted.wait(minute, t, "the interrupted study") == nil {
		t.Fatal("the interrupt must land mid-study")
	}
	if hint := "rerun the same command to resume"; !bytes.Contains(interrupted.stderr.Bytes(), []byte(hint)) {
		t.Errorf("the interrupted study's stderr lacks %q:\n%s", hint, interrupted.stderr.String())
	}
	tenSeconds, cancelRerun := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelRerun()
	if out := study(intCk).mustExit(tenSeconds, t, "the rerun of the interrupted study"); out != ref {
		t.Fatalf("the rerun's tables differ from the reference:\n%s\n---\n%s", out, ref)
	}
	sameFile(t, refCk, intCk)

	// The sharded study. The coordinator's restart must find its port
	// again, so take a free one now.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	coordDir, wrk, wrk2 := filepath.Join(dir, "coord"), filepath.Join(dir, "wrk"), filepath.Join(dir, "wrk2")
	coordinator := func() *proc {
		return start(t, bcectlBin, "study-coord", "-n", "60", "-days", "0.05", "-seed", "9", "-batch", "5",
			"-shards", "4", "-lease-secs", "5", "-addr", addr, "-dir", coordDir, "-checkpoint", distCk)
	}
	worker := func(name, dir string) *proc {
		return start(t, bcectlBin, "-workers", "2", "study-worker", "-coord", "http://"+addr, "-name", name, "-dir", dir)
	}
	coord := coordinator()
	victim := worker("victim", wrk)
	// Kill the victim mid-fold, once its first shard checkpoint exists.
	poll(20*time.Second, 10*time.Millisecond, func() bool { return len(glob(t, filepath.Join(wrk, "shard-*.ck.json"))) > 0 })
	victim.cmd.Process.Kill() //bce:errok it may have exited already
	<-victim.done
	// A second worker joins, and the victim restarts with the same name
	// and dir: it must reclaim its lease and resume its shard from the
	// local checkpoint.
	helper := worker("helper", wrk2)
	victim = worker("victim", wrk)
	// Kill the coordinator after its first durable shard report, and
	// restart it on the same dir: it must restore what it acknowledged
	// and take the rest from the workers' retries.
	poll(time.Minute, 10*time.Millisecond, func() bool { return len(glob(t, filepath.Join(coordDir, "shard-*.json"))) > 0 })
	coord.cmd.Process.Kill() //bce:errok it may have exited already
	<-coord.done
	reported := len(glob(t, filepath.Join(coordDir, "shard-*.json")))
	t.Logf("coordinator killed with %d of 4 shards reported", reported)
	if reported == 0 || reported >= 4 {
		t.Fatal("the coordinator kill must land mid-study")
	}
	coord = coordinator()

	// Coordinator and workers must all exit 0 within a minute: a worker
	// exits only on the coordinator's done reply.
	watchdog, cancelWatchdog := context.WithTimeout(context.Background(), time.Minute)
	defer cancelWatchdog()
	dist := coord.mustExit(watchdog, t, "the restarted coordinator")
	helper.mustExit(watchdog, t, "the helper worker")
	victim.mustExit(watchdog, t, "the restarted victim worker")
	sameFile(t, refCk, distCk)
	if dist != ref {
		t.Fatalf("the distributed study's tables differ from the reference:\n%s\n---\n%s", dist, ref)
	}
}
