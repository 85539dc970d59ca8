package analyzers

import (
	"fmt"
	"go/token"
	"go/types"
)

// This file is the module-level half of the allocation tier: a
// "transitively allocates" fact, one witness per function, propagated
// through the shared call-graph fixpoint (see facts.go and DESIGN.md
// §10.1). The per-package hotalloc pass reports direct allocation sites
// inside //bce:hotpath functions; this engine reports laundered
// allocations — a hotpath root calling an innocent-looking helper that
// allocates two hops down — at the hotpath call site, with the witness
// chain to the raw allocation. Interface calls flow through the
// synthetic CHA nodes, so an implementation that allocates taints every
// dynamic call site of the method.
//
// Calls leaving the module are opaque (except the fmt family, which
// the direct pass flags at the call site): the contract covers code we
// can see, which is the same documented under-approximation as the
// other fact tiers. An //bce:allocok directive on a call site stops
// fact propagation through that edge — the allocation is justified, so
// neither the caller nor anything above it inherits it.

// allocEngine holds the computed allocation facts for the module.
type allocEngine struct {
	graph *callGraph
	hot   map[*types.Func]bool
	facts map[*types.Func]*witness
	dead  map[*cgNode][]posRange
}

// allocRules reports whether the allocation tier is in the rule set,
// so RunRules can skip the engine entirely for other suites.
func allocRules(rules []Rule) bool {
	for _, r := range rules {
		if r.Analyzer.Name == "hotalloc" {
			return true
		}
	}
	return false
}

// computeAlloc builds the engine: the module-wide //bce:hotpath set,
// per-function direct seeds from the shared allocation-site scanner,
// then the call graph's fixpoint.
func computeAlloc(graph *callGraph) *allocEngine {
	e := &allocEngine{
		graph: graph,
		hot:   make(map[*types.Func]bool),
		facts: make(map[*types.Func]*witness),
		dead:  make(map[*cgNode][]posRange),
	}
	for _, n := range graph.order {
		if n.body != nil && graph.allows(n, "hotpath", n.body.Pos()) {
			e.hot[n.fn] = true
		}
	}
	for _, n := range graph.order {
		if n.body == nil || n.pkg == nil {
			continue
		}
		e.dead[n] = deadRangesIn(n.pkg.Info, n.body)
		sites := allocSitesIn(graph.fset, n.pkg.Info, n.body, n.pkg.markers, e.hot)
		if len(sites) > 0 {
			e.facts[n.fn] = &witness{pos: sites[0].pos, what: sites[0].what}
		}
	}
	graph.fixpoint(e.propagate)
	return e
}

// propagate flows "allocates" facts across n's call edges: a callee
// with the fact gives it to n, unless the edge is compile-time dead or
// carries an //bce:allocok justification.
func (e *allocEngine) propagate(n *cgNode) bool {
	if e.facts[n.fn] != nil {
		return false // witness already assigned
	}
	for _, edge := range n.out {
		if e.graph.nodes[edge.callee] == nil {
			continue // callee outside the module: opaque
		}
		if e.facts[edge.callee] == nil {
			continue
		}
		pos := edge.pos
		if !pos.IsValid() {
			pos = n.fn.Pos() // synthetic CHA edge: anchor at the interface method
		} else if e.excused(n, pos) {
			continue
		}
		e.facts[n.fn] = &witness{pos: pos, via: edge.callee}
		return true
	}
	return false
}

// excused reports whether a call site inside n neither allocates nor
// passes allocation on: it is eliminated in default builds
// (invariant.Enabled), or justified with //bce:allocok, so callers do
// not inherit it.
func (e *allocEngine) excused(n *cgNode, pos token.Pos) bool {
	return inRanges(e.dead[n], pos) || e.graph.allows(n, "allocok", pos)
}

// report emits the interprocedural hotalloc diagnostics: every call
// edge from a //bce:hotpath function into an in-module callee that
// transitively allocates. Callees that are themselves //bce:hotpath
// are skipped — their violations are already reported where they
// occur, so each laundered allocation surfaces exactly once.
func (e *allocEngine) report(rules []Rule) []Diagnostic {
	var rule *Rule
	for i := range rules {
		if rules[i].Analyzer.Name == "hotalloc" {
			rule = &rules[i]
			break
		}
	}
	if rule == nil {
		return nil
	}
	of := func(fn *types.Func) *witness { return e.facts[fn] }
	var out []Diagnostic
	for _, n := range e.graph.order {
		if n.pkg == nil || !e.hot[n.fn] || !rule.Applies(n.pkg.ImportPath) {
			continue
		}
		for _, edge := range n.out {
			if e.graph.nodes[edge.callee] == nil || !edge.pos.IsValid() {
				continue
			}
			if e.facts[edge.callee] == nil || e.hot[edge.callee] || e.excused(n, edge.pos) {
				continue
			}
			root := n.fn.FullName()
			out = append(out, Diagnostic{
				Analyzer: rule.Analyzer.Name,
				Pos:      e.graph.fset.Position(edge.pos),
				Message: fmt.Sprintf("call into %s allocates on a //bce:hotpath function (%s); make the callee allocation-free, annotate it //bce:hotpath to enforce the contract there, or justify with //bce:allocok <reason>",
					edge.callee.FullName(), witnessSummary([]string{root}, edge.callee, of)),
				Chain: witnessChain(e.graph.fset, []ChainStep{{
					Func: root,
					Pos:  e.graph.fset.Position(edge.pos),
					What: "calls " + edge.callee.FullName(),
				}}, edge.callee, of),
			})
		}
	}
	return out
}
