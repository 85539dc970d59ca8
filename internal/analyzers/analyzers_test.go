package analyzers_test

import (
	"path/filepath"
	"testing"

	"bce/internal/analyzers"
	"bce/internal/analyzers/analysistest"
)

func golden(name string) string {
	return filepath.Join("testdata", "src", name)
}

// packageGoldens maps each single-package golden dir to the analyzer
// its `// want` lines are written for.
var packageGoldens = []struct {
	dir      string
	analyzer *analyzers.Analyzer
}{
	{"nowalltime", analyzers.NoWallTime},
	{"seededrand", analyzers.SeededRand},
	{"mapiter", analyzers.MapIter},
	{"ctxpass", analyzers.CtxPass},
	{"seedderive", analyzers.SeedDerive},
	{"errdrop", analyzers.ErrDrop},
	{"noretain", analyzers.NoRetain},
}

func everywhere(string) bool { return true }

// interpRules scope the determinism tier to interp/core alone, so every
// violation in interp/helper must surface through the fact engine.
func interpRules() []analyzers.Rule {
	core := func(path string) bool { return path == "interp/core" }
	return []analyzers.Rule{
		{Analyzer: analyzers.NoWallTime, Applies: core},
		{Analyzer: analyzers.SeededRand, Applies: core},
		{Analyzer: analyzers.MapIter, Applies: core},
	}
}

func hotAllocRules() []analyzers.Rule {
	return []analyzers.Rule{{Analyzer: analyzers.HotAlloc, Applies: everywhere}}
}

func concRules() []analyzers.Rule {
	return []analyzers.Rule{
		{Analyzer: analyzers.GuardedBy, Applies: everywhere},
		{Analyzer: analyzers.GoLeak, Applies: everywhere},
		{Analyzer: analyzers.LockOrder, Applies: everywhere},
	}
}

// moduleGoldens are the golden mini-modules and the rule sets they run
// under.
var moduleGoldens = []struct {
	dir   string
	rules func() []analyzers.Rule
}{
	{"interp", interpRules},
	{"hotalloc", hotAllocRules},
	{"conc", concRules},
}

func TestNoWallTime(t *testing.T) {
	analysistest.Run(t, analyzers.NoWallTime, golden("nowalltime"))
}

func TestSeededRand(t *testing.T) {
	analysistest.Run(t, analyzers.SeededRand, golden("seededrand"))
}

func TestMapIter(t *testing.T) {
	analysistest.Run(t, analyzers.MapIter, golden("mapiter"))
}

func TestCtxPass(t *testing.T) {
	analysistest.Run(t, analyzers.CtxPass, golden("ctxpass"))
}

func TestSeedDerive(t *testing.T) {
	analysistest.Run(t, analyzers.SeedDerive, golden("seedderive"))
}

func TestErrDrop(t *testing.T) {
	analysistest.Run(t, analyzers.ErrDrop, golden("errdrop"))
}

// TestInterprocedural runs the fact engine over the interp golden
// mini-module: interp/core is the only in-scope package, so every
// laundered wall-clock read, global rand draw, and map range in
// interp/helper must surface at the core call site, exactly once, with
// the full chain in the message. The module includes mutual recursion
// and a cycle through an interface method, so a fixpoint that fails to
// terminate hangs this test and a double report fails the want check.
func TestInterprocedural(t *testing.T) {
	analysistest.RunModule(t, interpRules(), golden("interp"))
}

// TestHotAlloc runs the allocation tier over the hotalloc golden
// mini-module: direct sites inside //bce:hotpath functions (escaping
// make/composite, non-self append, string conversions, boxing, closure
// captures, variadic construction, fmt), the two-hop laundering chain
// (kernel → helper.Fold → tally → scratch), interface dispatch through
// a CHA node, //bce:allocok placement on the line / line above / call
// site, and compile-time dead code under a const-false guard.
func TestHotAlloc(t *testing.T) {
	analysistest.RunModule(t, hotAllocRules(), golden("hotalloc"))
}

// TestNoRetain runs the scratch-retention check over its golden
// package: slice/interior-pointer retention into receiver fields, maps
// and channels, package-level stores, alias laundering through locals,
// the copy builtin both ways, and the value-element deep-copy idioms
// that must stay clean.
func TestNoRetain(t *testing.T) {
	analysistest.Run(t, analyzers.NoRetain, golden("noretain"))
}

// TestConcurrency runs the concurrency tier over the conc golden
// mini-module: guardedby (held-lock tracking, RWMutex strength,
// cross-function requirements with witness chains), goleak (lifeline
// arguments, channel signals, awaited WaitGroups, interprocedural
// terminates facts), and lockorder (the A→B / B→A deadlock cycle —
// one half hidden behind a helper — reported exactly once with both
// chains, plus a reentrant self-cycle).
func TestConcurrency(t *testing.T) {
	analysistest.RunModule(t, concRules(), golden("conc"))
}
