package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// FactKind identifies one transitive determinism property tracked by
// the interprocedural engine (modeled on x/tools analysis facts, on
// the standard library alone). A function carries a fact when its body
// — or anything it transitively calls inside the module — performs the
// corresponding primitive without a sanctioning directive at the site.
type FactKind uint8

const (
	// FactWallClock: transitively reads the host's wall clock
	// (time.Now / time.Since / time.Sleep).
	FactWallClock FactKind = iota
	// FactGlobalRand: transitively draws from the global math/rand or
	// math/rand/v2 state.
	FactGlobalRand
	// FactMapRange: transitively ranges over a map, whose iteration
	// order is randomized per run.
	FactMapRange

	numFactKinds
)

// factStore holds the computed determinism facts for every module
// function: one witness per fact kind it carries.
type factStore struct {
	graph *callGraph
	facts map[*types.Func]*[numFactKinds]*witness
}

func (s *factStore) info(fn *types.Func) *[numFactKinds]*witness {
	fi := s.facts[fn]
	if fi == nil {
		fi = new([numFactKinds]*witness)
		s.facts[fn] = fi
	}
	return fi
}

// of returns the witness lookup for one fact kind.
func (s *factStore) of(k FactKind) func(*types.Func) *witness {
	return func(fn *types.Func) *witness {
		if fi := s.facts[fn]; fi != nil {
			return fi[k]
		}
		return nil
	}
}

// computeFacts seeds direct facts from every function body and
// propagates them to callers through the call graph's fixpoint.
func computeFacts(graph *callGraph) *factStore {
	s := &factStore{graph: graph, facts: make(map[*types.Func]*[numFactKinds]*witness)}
	for _, n := range graph.order {
		if n.body != nil {
			s.seedDirect(n)
		}
	}
	graph.fixpoint(func(n *cgNode) bool {
		changed := false
		for _, e := range n.out {
			callee := graph.nodes[e.callee]
			if callee == nil {
				continue
			}
			from := s.facts[callee.fn]
			if from == nil {
				continue
			}
			for k, w := range from {
				if w == nil || s.info(n.fn)[k] != nil {
					continue
				}
				pos := e.pos
				if !pos.IsValid() {
					// CHA interface→implementation edge: anchor the hop
					// at the implementation itself.
					pos = callee.fn.Pos()
				}
				s.info(n.fn)[k] = &witness{pos: pos, via: callee.fn}
				changed = true
			}
		}
		return changed
	})
	return s
}

// seedDirect records the first unallowed primitive of each kind found
// in the function body, through the same detectors the direct passes
// use.
func (s *factStore) seedDirect(n *cgNode) {
	info := n.pkg.Info
	ast.Inspect(n.body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.CallExpr:
			if fn := wallClockCall(info, node); fn != nil && !s.graph.allows(n, "wallclock", node.Pos()) {
				s.setDirect(n.fn, FactWallClock, node.Pos(), "time."+fn.Name())
			}
			if fn := globalRandCall(info, node); fn != nil {
				s.setDirect(n.fn, FactGlobalRand, node.Pos(), fn.Pkg().Path()+"."+fn.Name())
			}
		case *ast.RangeStmt:
			if t := mapRanged(info, node); t != nil && !s.graph.allows(n, "unordered", node.Pos()) {
				s.setDirect(n.fn, FactMapRange, node.Pos(),
					"range over "+types.TypeString(t, types.RelativeTo(n.pkg.Types)))
			}
		}
		return true
	})
}

func (s *factStore) setDirect(fn *types.Func, k FactKind, pos token.Pos, what string) {
	if fi := s.info(fn); fi[k] == nil {
		fi[k] = &witness{pos: pos, what: what}
	}
}

// factRule describes how one analyzer consumes the fact store: which
// kind it propagates and which caller-side directive sanctions a
// flagged call site.
type factRule struct {
	kind   FactKind
	marker string // "" = no escape hatch
	format string // Sprintf(format, callee, chain)
}

var analyzerFacts = map[string]factRule{
	"nowalltime": {FactWallClock, "wallclock",
		"call into %s reaches a wall-clock read (%s); use the simulated clock, or annotate a deliberate host-time measurement with //bce:wallclock"},
	"seededrand": {FactGlobalRand, "",
		"call into %s reaches the global math/rand state (%s); thread an explicitly seeded internal/stats.RNG instead"},
	"mapiter": {FactMapRange, "unordered",
		"call into %s reaches a randomized-order map range (%s) that can diverge replay; sort at the source, or mark an order-insensitive loop there with //bce:unordered"},
}

// report emits the laundered-fact diagnostics: a call site in a
// package the rule governs, whose callee carries the fact rooted in a
// package the rule does not govern (a violation in a governed package
// is already reported at its source by the direct analyzer, so each
// violation surfaces exactly once).
func (s *factStore) report(rules []Rule) []Diagnostic {
	var out []Diagnostic
	for _, rule := range rules {
		fr, ok := analyzerFacts[rule.Analyzer.Name]
		if !ok {
			continue
		}
		of := s.of(fr.kind)
		for _, n := range s.graph.order {
			if n.pkg == nil || !rule.Applies(n.pkg.ImportPath) {
				continue
			}
			for _, e := range n.out {
				if !e.pos.IsValid() {
					continue
				}
				callee := s.graph.nodes[e.callee]
				if callee == nil {
					continue
				}
				if of(callee.fn) == nil {
					continue
				}
				if rule.Applies(rootPath(callee.fn, of, e.dynamic)) {
					continue
				}
				if fr.marker != "" && s.graph.allows(n, fr.marker, e.pos) {
					continue
				}
				out = append(out, Diagnostic{
					Analyzer: rule.Analyzer.Name,
					Pos:      s.graph.fset.Position(e.pos),
					Message: fmt.Sprintf(fr.format,
						callee.fn.FullName(), witnessSummary(nil, callee.fn, of)),
					Chain: witnessChain(s.graph.fset, nil, callee.fn, of),
				})
			}
		}
	}
	return out
}

// rootPath is the package path the scope test runs against. For a
// static callee that is the callee's own package. An interface method
// has no body to report in, so a dynamic call is scope-tested against
// the witness implementation instead.
func rootPath(fn *types.Func, of func(*types.Func) *witness, dynamic bool) string {
	if dynamic {
		if w := of(fn); w != nil && w.via != nil {
			fn = w.via
		}
	}
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}
