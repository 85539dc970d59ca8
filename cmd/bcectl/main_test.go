package main

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bce/internal/experiments"
)

// bcectl runs one command line in-process through run and returns its
// exit code and what it wrote to stdout and stderr.
func bcectl(ctx context.Context, args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(ctx, args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// mustRun runs a command line that must exit 0 and returns its stdout.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, stdout, stderr := bcectl(context.Background(), args...)
	if code != 0 {
		t.Fatalf("bcectl %s: exit %d\n%s", strings.Join(args, " "), code, stderr)
	}
	return stdout
}

// TestRunExitCodes pins run's exit codes and which stream each
// outcome writes: 2 with usage on stderr for a missing or unknown
// command or a bad top-level flag, 0 for -h at either level, and 1
// with one "bcectl: <err>" line for a command that fails. None of them
// prints to stdout.
func TestRunExitCodes(t *testing.T) {
	ck, want, same := finishedStudy(t)
	nodir := filepath.Join(t.TempDir(), "nodir")
	csvPath := filepath.Join(t.TempDir(), "fig.csv")
	const usageLine = "bcectl — BOINC client emulator controller"

	for _, tc := range []struct {
		name      string
		args      []string
		code      int
		stderr    []string // substrings stderr must hold
		notStderr string   // a substring stderr must not hold
	}{
		{name: "no command", code: 2, stderr: []string{usageLine, "-seeds"}},
		{name: "unknown command", args: []string{"fig9"}, code: 2, stderr: []string{usageLine}},
		{
			name: "bad top-level flag", args: []string{"-bogus", "figures"}, code: 2,
			stderr: []string{"flag provided but not defined: -bogus", usageLine},
		},
		{name: "top-level -h", args: []string{"-h"}, code: 0, stderr: []string{usageLine}, notStderr: "bcectl:"},
		{
			// One CSV cannot hold figures with different x axes, so
			// -csv is refused before any figure runs.
			name: "-csv with figures", args: []string{"-seeds", "1", "-csv", csvPath, "figures"}, code: 2,
			stderr: []string{"bcectl: -csv"},
		},
		{name: "-csv with extensions", args: []string{"-csv", csvPath, "extensions"}, code: 2, stderr: []string{"bcectl: -csv"}},
		{
			name: "study -h", args: []string{"study", "-h"}, code: 0,
			stderr: []string{"usage: bcectl [flags] study", "-checkpoint"}, notStderr: "bcectl:",
		},
		{
			name: "refused study", args: append(append([]string{"study"}, same...), "-seed", "7"), code: 1,
			stderr: []string{"bcectl: population: refusing to resume", ck},
		},
		{
			// A checkpoint that cannot be written fails the study after
			// its first batch; a rerun would fail the same way, so no
			// resume hint.
			name: "unwritable study checkpoint",
			args: []string{"study", "-n", "12", "-days", "0.02", "-seed", "9", "-batch", "4",
				"-checkpoint", filepath.Join(nodir, "y.json")},
			code:      1,
			stderr:    []string{"bcectl: ", nodir + string(filepath.Separator), "no such file or directory"},
			notStderr: "rerun",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := bcectl(context.Background(), tc.args...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr)
			}
			if stdout != "" {
				t.Errorf("stdout %q, want nothing", stdout)
			}
			for _, s := range tc.stderr {
				if !strings.Contains(stderr, s) {
					t.Errorf("stderr missing %q:\n%s", s, stderr)
				}
			}
			if tc.notStderr != "" && strings.Contains(stderr, tc.notStderr) {
				t.Errorf("stderr holds %q:\n%s", tc.notStderr, stderr)
			}
		})
	}
	if got, err := os.ReadFile(ck); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the refused study changed its checkpoint (err %v)", err)
	}
	if _, err := os.Stat(csvPath); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a refused -csv left %s behind (stat: %v)", csvPath, err)
	}
}

// TestFigureCSVWriteError: a -csv file that cannot be written fails
// the command, after the figure's table has been printed.
func TestFigureCSVWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail the write with")
	}
	code, stdout, stderr := bcectl(context.Background(), "-seeds", "1", "-csv", "/dev/full", "fig2")
	if code != 1 || !strings.Contains(stderr, "bcectl: write /dev/full: no space left on device") {
		t.Fatalf("exit %d, want 1 with the write error; stderr:\n%s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "== fig2:") {
		t.Fatalf("stdout %q, want the figure table first", stdout)
	}
}

// TestControllerCommands drives the figure controller end to end:
// every paper figure at one and at four workers, whose output must
// match byte for byte, the extension experiments, a policy comparison,
// and a parameter sweep that writes its CSV.
func TestControllerCommands(t *testing.T) {
	if testing.Short() {
		t.Skip("the figures take seconds per run")
	}
	if raceEnabled {
		t.Skip("the figures take minutes under the race detector; the bceinvariants job runs this test")
	}
	w1 := mustRun(t, "-seeds", "1", "-workers", "1", "figures")
	w4 := mustRun(t, "-seeds", "1", "-workers", "4", "figures")
	if w1 != w4 {
		t.Fatalf("figures differ between -workers 1 and -workers 4:\n%s\n---\n%s", w1, w4)
	}
	mustRun(t, "-seeds", "1", "extensions")
	scn := filepath.Join("..", "..", "testdata", "two_projects.json")
	mustRun(t, "-seeds", "2", "compare", scn)
	csv := filepath.Join(t.TempDir(), "sweep.csv")
	mustRun(t, "-seeds", "2", "-csv", csv, "sweep", scn, "max_queue_hours", "2", "4", "8")
	if data, err := os.ReadFile(csv); err != nil || !strings.HasPrefix(string(data), "max_queue_hours,") {
		t.Fatalf("sweep CSV %s: %q (err %v)", csv, data, err)
	}
}

// TestFigureChart pins the one ASCII chart renderer, which prints both
// the figures and the sweep's chart: a "y vs x" header with the y
// maximum, one glyph per point and a legend naming each curve's glyph.
func TestFigureChart(t *testing.T) {
	chart := figureChart(&experiments.Figure{
		XLabel: "p", YLabel: "idle",
		Labels: []string{"v"}, X: []float64{1, 2, 3}, Y: map[string][]float64{"v": {0.1, 0.2, 0.4}},
	}, 40, 10)
	if !strings.Contains(chart, "idle vs p (ymax=0.400)") || !strings.Contains(chart, "*=v") {
		t.Fatalf("chart malformed:\n%s", chart)
	}
	if n := strings.Count(chart, "*"); n != 4 {
		t.Fatalf("chart has %d '*' glyphs, want 3 points and 1 legend entry:\n%s", n, chart)
	}
}
