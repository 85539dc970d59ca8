package analyzers

import "strings"

// Rule pairs an analyzer with the packages it governs. The analyzers
// themselves are package-agnostic (so the analysistest golden packages
// exercise them directly); scoping is a driver decision.
type Rule struct {
	Analyzer *Analyzer
	Applies  func(importPath string) bool
}

// simCorePackages are the packages whose map-iteration order can reach
// scheduling decisions, floating-point accumulation, or event
// ordering. Report/chart packages stay out: they must sort for stable
// *output*, which mapiter's blanket rule would over-approximate.
var simCorePackages = map[string]bool{
	"bce/internal/client":   true,
	"bce/internal/fetch":    true,
	"bce/internal/rrsim":    true,
	"bce/internal/sched":    true,
	"bce/internal/sim":      true,
	"bce/internal/project":  true,
	"bce/internal/emserver": true,
}

// libraryPackage reports whether the import path is library code, as
// opposed to a main package (cmd/, examples/) that legitimately owns
// its process: roots like signal-bound contexts or wall-clock
// timestamps belong there.
func libraryPackage(importPath string) bool {
	return !strings.HasPrefix(importPath, "bce/cmd/") &&
		!strings.HasPrefix(importPath, "bce/examples/")
}

func everywhere(string) bool { return true }

// seedDerivePackages excludes the two packages that *define* the
// blessed derivation primitives: runner.DeriveSeed is the required
// mixer, and stats.RNG.Fork legitimately mixes a label hash into a
// child seed. Everywhere else, ad-hoc seed arithmetic is the fleet
// seed-collision bug class.
func seedDerivePackages(path string) bool {
	return path != "bce/internal/runner" && path != "bce/internal/stats"
}

// Suite returns the determinism and concurrency rules bcelint and CI
// enforce.
func Suite() []Rule {
	return []Rule{
		{NoWallTime, libraryPackage},
		{SeededRand, everywhere},
		{MapIter, func(path string) bool { return simCorePackages[path] }},
		{CtxPass, libraryPackage},
		{SeedDerive, seedDerivePackages},
		{ErrDrop, libraryPackage},
		{GuardedBy, libraryPackage},
		{GoLeak, libraryPackage},
		{LockOrder, libraryPackage},
		{HotAlloc, everywhere},
		{NoRetain, everywhere},
	}
}

// RunSuite loads the packages matching patterns (from dir) and applies
// every applicable rule — direct per-package checks plus the
// interprocedural fact engine — returning all diagnostics in file
// order.
func RunSuite(dir string, patterns []string) ([]Diagnostic, error) {
	pkgs, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	return RunRules(pkgs, Suite())
}

// RunRules applies the rules to the loaded packages: every in-scope
// package gets the direct analyzer passes, then the module-wide call
// graph and fact store surface laundered violations — a wall-clock
// read, global rand draw, or map range buried in an out-of-scope
// helper — at the in-scope call site with the full call chain.
func RunRules(pkgs []*Package, rules []Rule) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, pkg := range pkgs {
		for _, rule := range rules {
			if !rule.Applies(pkg.ImportPath) {
				continue
			}
			diags, err := RunAnalyzer(rule.Analyzer, pkg)
			if err != nil {
				return nil, err
			}
			all = append(all, diags...)
		}
	}
	graph := buildCallGraph(pkgs)
	all = append(all, computeFacts(graph).report(rules)...)
	if concurrencyRules(rules) {
		all = append(all, computeConcurrency(pkgs, graph).report(rules)...)
	}
	if allocRules(rules) {
		all = append(all, computeAlloc(graph).report(rules)...)
	}
	sortDiagnostics(all)
	return all, nil
}
