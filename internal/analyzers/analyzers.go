// Package analyzers is BCE's contract-enforcing static-analysis
// suite. It mirrors the golang.org/x/tools/go/analysis API shape on the
// standard library alone (go/ast + go/types + gc export data via `go
// list -export`), because the module is intentionally dependency-free.
//
// Six analyzers enforce the determinism contract the paper's
// methodology rests on (see DESIGN.md §10):
//
//   - nowalltime: wall-clock time must not leak into the emulation —
//     sim time comes from the simulated clock.
//   - seededrand: all randomness flows through seeded generators
//     (internal/stats.RNG), never the global math/rand state.
//   - mapiter: core scheduling packages must not range over maps,
//     whose iteration order is deliberately randomized by the runtime.
//   - ctxpass: library code threads the caller's context instead of
//     minting context.Background()/TODO().
//   - seedderive: ad-hoc seed arithmetic (seed+i, seed*k, seed^h)
//     flowing into an RNG constructor or Seed field must go through
//     runner.DeriveSeed instead.
//   - errdrop: library code must not silently discard errors.
//
// Three more enforce the concurrency contract (DESIGN.md §10.2):
//
//   - guardedby: fields annotated //bce:guardedby <mu> are only
//     accessed with the lock held, tracked through the held-lock set
//     and checked across calls.
//   - goleak: every go statement has a visible termination path — a
//     context, a stop channel, or an awaited WaitGroup.
//   - lockorder: the module-wide lock-order graph stays acyclic;
//     cycles are reported as potential deadlocks with both chains.
//
// Two more enforce the allocation contract on the emulation kernel
// (DESIGN.md §10.3):
//
//   - hotalloc: functions annotated //bce:hotpath — and everything
//     they transitively call inside the module — must not allocate:
//     escaping composite literals and make/new, non-self-append
//     append, string<->[]byte conversions, interface boxing, closure
//     captures, variadic slice construction, and fmt calls.
//   - noretain: functions annotated //bce:scratch (the reusable-
//     simulator pattern) must not retain references to caller-provided
//     slices or pointers beyond the call.
//
// Several rules also propagate interprocedurally, on one engine: a
// module-wide call graph whose components are computed once
// (callgraph.go), one fixpoint loop that each fact tier feeds with a
// step function (facts.go for the determinism facts, concurrency.go
// for requires-lock/acquires/terminates, allocfacts.go for
// transitively-allocates), and one witness type and chain renderer
// (witness.go). A violation buried in an out-of-scope helper surfaces
// at the governed call site, with the full call chain.
//
// Escape hatches are directive comments: //bce:wallclock,
// //bce:unordered, //bce:ctxshim, //bce:seedok, //bce:errok,
// //bce:lockok, //bce:bgok, //bce:allocok and //bce:retainok, honored
// on the flagged line, the line above it, the enclosing function's doc
// comment, or (for closures) the function literal's opening line or
// the line above it. Every escape carries a trailing justification
// ("//bce:allocok amortized grow path"), enforced by the suite's
// hygiene meta-check.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one static check, structured like
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one reported finding. Interprocedural findings (a
// determinism fact laundered through helper calls, see facts.go) carry
// the call chain from the flagged call site down to the root primitive.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	Chain    []ChainStep
}

// ChainStep is one hop of a laundered-fact call chain: inside Func, at
// Pos, What happens (a call to the next function in the chain, or the
// root primitive itself).
type ChainStep struct {
	Func string
	Pos  token.Position
	What string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report  func(Diagnostic)
	markers *markerIndex // the package's, built once at load
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Allowed reports whether the position is covered by the given
// directive marker (e.g. "wallclock" for //bce:wallclock): a marker
// comment on the same line, on the line immediately above, in the doc
// comment of the enclosing function declaration, or on (or immediately
// above) the opening line of an enclosing function literal.
func (p *Pass) Allowed(marker string, pos token.Pos) bool {
	return p.markers.allows(p.Fset, marker, pos)
}

func (idx *markerIndex) allows(fset *token.FileSet, marker string, pos token.Pos) bool {
	where := fset.Position(pos)
	key := markerKey{file: where.Filename, marker: marker}
	if lines := idx.lines[key]; lines[where.Line] || lines[where.Line-1] {
		return true
	}
	for _, s := range idx.funcs[key] {
		if s.from <= where.Line && where.Line <= s.to {
			return true
		}
	}
	return false
}

type markerKey struct {
	file   string
	marker string
}

type lineSpan struct{ from, to int }

type markerIndex struct {
	lines map[markerKey]map[int]bool
	funcs map[markerKey][]lineSpan
}

// markersIn extracts the directive names from one comment group:
// "//bce:wallclock — profiling" yields ["wallclock"].
func markersIn(cg *ast.CommentGroup) []string {
	var out []string
	if cg == nil {
		return nil
	}
	for _, c := range cg.List {
		text := strings.TrimPrefix(c.Text, "//")
		text = strings.TrimPrefix(text, "/*")
		text, ok := strings.CutPrefix(strings.TrimSpace(text), "bce:")
		if !ok {
			continue
		}
		name, _, _ := strings.Cut(text, " ")
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}

func indexMarkers(fset *token.FileSet, files []*ast.File) *markerIndex {
	idx := &markerIndex{
		lines: make(map[markerKey]map[int]bool),
		funcs: make(map[markerKey][]lineSpan),
	}
	for _, f := range files {
		fileName := fset.Position(f.Pos()).Filename
		markersAt := make(map[int][]string) // line -> directive names on it
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				line := fset.Position(c.Pos()).Line
				for _, m := range markersIn(&ast.CommentGroup{List: []*ast.Comment{c}}) {
					key := markerKey{file: fileName, marker: m}
					if idx.lines[key] == nil {
						idx.lines[key] = make(map[int]bool)
					}
					idx.lines[key][line] = true
					markersAt[line] = append(markersAt[line], m)
				}
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			span := lineSpan{
				from: fset.Position(fd.Pos()).Line,
				to:   fset.Position(fd.End()).Line,
			}
			for _, m := range markersIn(fd.Doc) {
				key := markerKey{file: fileName, marker: m}
				idx.funcs[key] = append(idx.funcs[key], span)
			}
		}
		// Function literals have no doc comment in the AST, so a marker
		// on the literal's opening line (or the line above it) covers
		// the whole literal body — without this, a directive on a
		// closure would only bless the opening line itself.
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			span := lineSpan{
				from: fset.Position(lit.Pos()).Line,
				to:   fset.Position(lit.End()).Line,
			}
			for _, m := range append(markersAt[span.from], markersAt[span.from-1]...) {
				key := markerKey{file: fileName, marker: m}
				idx.funcs[key] = append(idx.funcs[key], span)
			}
			return true
		})
	}
	return idx
}

// staticCallee resolves a call through either a plain identifier
// (same-package helper()) or a selector (pkg.F, recv.M) to the
// *types.Func it names, or nil for calls of function values, builtins
// and type conversions.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isPackageLevel reports whether fn is a package-level function (not a
// method) of the package with the given import path.
func isPackageLevel(fn *types.Func, pkgPath string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// inspect walks every file of the pass in source order.
func (p *Pass) inspect(visit func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, visit)
	}
}
