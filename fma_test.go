package bce

import (
	"os"
	"os/exec"
	"regexp"
	"sort"
	"testing"
)

// fusedOp matches a fused multiply-add or multiply-subtract in the
// arm64 assembly listing, with the source position the compiler gives
// it.
var fusedOp = regexp.MustCompile(`\((\S+\.go:\d+)\)\s+(FN?M(?:ADD|SUB)[DS])\s`)

// TestNoFusedMultiplyAdd holds the floating-point half of the
// determinism contract (DESIGN §10.7): the Go spec lets a compiler fuse
// x*y + z into one instruction that rounds once, and on arm64 gc does,
// so an arm64 machine would compute other bits than amd64. Every
// product that feeds an addition is written float64(x*y), which the
// spec defines as rounding and so forbids the fusion. The test
// cross-compiles what a run, a study, a fabric worker and the figures
// compute for arm64 and fails on any fused instruction in the module's
// own code. It does not see the standard library, whose math.Exp and
// math.Log differ by architecture on their own (DESIGN §10.7).
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the emulation packages for arm64")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to cross-compile with")
	}
	cmd := exec.Command(goTool, "build", "-gcflags=bce/...=-S",
		".", "./internal/population", "./internal/fabric", "./internal/experiments")
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0", "GOPROXY=off")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build for arm64: %v\n%.4000s", err, out)
	}
	sites := map[string]string{}
	for _, m := range fusedOp.FindAllSubmatch(out, -1) {
		sites[string(m[1])] = string(m[2])
	}
	if len(sites) == 0 {
		return
	}
	lines := make([]string, 0, len(sites))
	for pos, op := range sites {
		lines = append(lines, pos+" "+op)
	}
	sort.Strings(lines)
	for _, l := range lines {
		t.Errorf("fused multiply-add at %s: write the product as float64(x*y)", l)
	}
}
