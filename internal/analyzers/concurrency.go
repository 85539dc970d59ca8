package analyzers

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the module-level half of the concurrency tier: three
// interprocedural facts, propagated together through the shared
// call-graph fixpoint (see facts.go and DESIGN.md §10.1), feeding the
// guardedby, goleak and lockorder rules. Requirements and acquisitions
// carry witnesses, so both render chains with the shared renderer.
//
//   - requires: function f needs lock L held on entry (it accesses a
//     //bce:guardedby field, or calls a helper that does, without
//     acquiring L itself). Discharged at call sites that hold L;
//     reported at root functions (exported, or called by nobody in the
//     module) with the witness chain down to the raw field access.
//   - acquires: f may take lock L (directly or transitively). The
//     cross product of "locks held at a call site" × "locks the callee
//     may acquire" yields the module-wide lock-order graph; any cycle
//     in it is a potential deadlock, reported once with the acquisition
//     chains as evidence.
//   - terminates: f has a visible termination path (a context or
//     receivable-channel parameter, or a body that receives, selects,
//     or ranges over a channel — directly or through a callee). A go
//     statement with no lifeline argument, no such signal in the
//     spawned body, no awaited WaitGroup and no terminating callee is a
//     leak-prone fire-and-forget goroutine (goleak), escapable with
//     //bce:bgok.

// guardKey is one lock requirement: the guard's typeKey plus the
// access strength (a write needs the exclusive lock, so read and write
// requirements propagate independently).
type guardKey struct {
	lock  lockID
	write bool
}

// concEngine holds the computed concurrency facts for the module.
type concEngine struct {
	graph *callGraph

	guards    guardTable
	badGuards []badGuard
	sums      map[*types.Func]*funcSummary

	requires   map[*types.Func]map[guardKey]*witness
	acquires   map[*types.Func]map[lockID]*witness
	terminates map[*types.Func]bool
	awaitedWGs map[types.Object]bool
	callers    map[*types.Func]int
}

// concurrencyRules reports whether any concurrency-tier rule is in the
// set, so RunRules can skip the engine entirely for other suites.
func concurrencyRules(rules []Rule) bool {
	for _, r := range rules {
		switch r.Analyzer.Name {
		case "guardedby", "goleak", "lockorder":
			return true
		}
	}
	return false
}

// computeConcurrency builds the engine: per-function summaries from the
// held-lock body scan (locks.go), then the call graph's fixpoint over
// all three facts at once.
func computeConcurrency(pkgs []*Package, graph *callGraph) *concEngine {
	e := &concEngine{
		graph:      graph,
		sums:       make(map[*types.Func]*funcSummary),
		requires:   make(map[*types.Func]map[guardKey]*witness),
		acquires:   make(map[*types.Func]map[lockID]*witness),
		terminates: make(map[*types.Func]bool),
		awaitedWGs: make(map[types.Object]bool),
		callers:    make(map[*types.Func]int),
	}
	e.guards, e.badGuards = collectGuards(pkgs)

	for _, n := range graph.order {
		if n.body != nil {
			sum := summarize(n, e.guards)
			e.sums[n.fn] = sum
			for _, wg := range sum.wgWaits {
				e.awaitedWGs[wg] = true
			}
		}
		for _, edge := range n.out {
			e.callers[edge.callee]++
		}
	}

	for _, n := range graph.order {
		if sum := e.sums[n.fn]; sum != nil {
			e.seed(n, sum)
		}
	}

	graph.fixpoint(func(n *cgNode) bool {
		changed := false
		for _, c := range e.callRecords(n) {
			if e.propagate(n, c) {
				changed = true
			}
		}
		return changed
	})
	return e
}

// seed records each function's direct facts: unguarded accesses to
// annotated fields (requirements), direct lock acquisitions, and
// termination signals from the body or the signature.
func (e *concEngine) seed(n *cgNode, sum *funcSummary) {
	for _, a := range sum.accesses {
		if e.unguarded(n, a) {
			key := guardKey{lock: a.guard.lock, write: a.write}
			if e.req(n.fn)[key] == nil {
				e.req(n.fn)[key] = &witness{pos: a.pos, what: a.describe()}
			}
		}
	}
	for _, acq := range sum.acqs {
		key := acq.id.typeKey()
		if e.acq(n.fn)[key] == nil {
			e.acq(n.fn)[key] = &witness{pos: acq.pos, what: "acquires " + key.display()}
		}
	}
	if sum.termSeed || signatureLifeline(n.fn) {
		e.terminates[n.fn] = true
	}
}

// callRecords is the list of (call site, held locks) pairs facts flow
// through for one node: the scanned call sites for declared functions,
// or the synthetic CHA edges (no position, nothing held) for interface
// methods.
func (e *concEngine) callRecords(n *cgNode) []callSite {
	if sum := e.sums[n.fn]; sum != nil {
		return sum.calls
	}
	records := make([]callSite, 0, len(n.out))
	for _, edge := range n.out {
		records = append(records, callSite{pos: n.fn.Pos(), callee: edge.callee, held: nil})
	}
	return records
}

// propagate flows the callee's facts across one call site: lock
// requirements not discharged by the held set, transitive acquisitions,
// and termination.
func (e *concEngine) propagate(n *cgNode, c callSite) bool {
	changed := false
	if from := e.requires[c.callee]; len(from) > 0 {
		for _, key := range sortedKeys(from, guardKey.less) {
			if c.held.satisfies(key.lock, key.write) || e.graph.allows(n, "lockok", c.pos) {
				continue
			}
			if e.req(n.fn)[key] == nil {
				e.req(n.fn)[key] = &witness{pos: c.pos, via: c.callee}
				changed = true
			}
		}
	}
	if from := e.acquires[c.callee]; len(from) > 0 {
		for _, key := range sortedKeys(from, lockID.less) {
			if e.acq(n.fn)[key] == nil {
				e.acq(n.fn)[key] = &witness{pos: c.pos, via: c.callee}
				changed = true
			}
		}
	}
	if e.terminates[c.callee] && !e.terminates[n.fn] {
		e.terminates[n.fn] = true
		changed = true
	}
	return changed
}

func (e *concEngine) req(fn *types.Func) map[guardKey]*witness {
	m := e.requires[fn]
	if m == nil {
		m = make(map[guardKey]*witness)
		e.requires[fn] = m
	}
	return m
}

func (e *concEngine) acq(fn *types.Func) map[lockID]*witness {
	m := e.acquires[fn]
	if m == nil {
		m = make(map[lockID]*witness)
		e.acquires[fn] = m
	}
	return m
}

// unguarded reports whether a guarded-field access inside n is made
// without the lock its write-or-read strength needs, and no
// //bce:lockok covers it.
func (e *concEngine) unguarded(n *cgNode, a fieldAccess) bool {
	return !a.held.satisfies(a.guard.lock, a.write) && !e.graph.allows(n, "lockok", a.pos)
}

// signatureLifeline reports whether fn's parameters include a context
// or a receivable channel — a caller-provided termination path.
func signatureLifeline(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if isContextType(t) || isReceivableChan(t) {
			return true
		}
	}
	return false
}

// isRootFunc reports whether requirements surface at fn: exported
// functions can be entered from anywhere, and a function nobody in the
// module calls has no call site left to discharge its requirement.
func (e *concEngine) isRootFunc(fn *types.Func) bool {
	return fn.Exported() || e.callers[fn] == 0
}

// report emits the concurrency-tier diagnostics for the rules present
// in the set.
func (e *concEngine) report(rules []Rule) []Diagnostic {
	var out []Diagnostic
	for _, rule := range rules {
		switch rule.Analyzer.Name {
		case "guardedby":
			out = append(out, e.reportGuardedBy(rule)...)
		case "goleak":
			out = append(out, e.reportGoLeak(rule)...)
		case "lockorder":
			out = append(out, e.reportLockOrder(rule)...)
		}
	}
	return out
}

// reportGuardedBy emits malformed annotations, every unguarded direct
// access in a root function, and undischarged requirements imported
// through calls — the latter with the witness chain down to the raw
// access.
func (e *concEngine) reportGuardedBy(rule Rule) []Diagnostic {
	var out []Diagnostic
	for _, bg := range e.badGuards {
		if !rule.Applies(bg.pkg.ImportPath) {
			continue
		}
		out = append(out, Diagnostic{
			Analyzer: rule.Analyzer.Name,
			Pos:      e.graph.fset.Position(bg.pos),
			Message:  bg.message,
		})
	}
	for _, n := range e.graph.order {
		sum := e.sums[n.fn]
		if sum == nil || n.pkg == nil || !rule.Applies(n.pkg.ImportPath) {
			continue
		}
		if !e.isRootFunc(n.fn) {
			continue // a caller discharges or inherits the requirement
		}
		for _, a := range sum.accesses {
			if !e.unguarded(n, a) {
				continue
			}
			out = append(out, Diagnostic{
				Analyzer: rule.Analyzer.Name,
				Pos:      e.graph.fset.Position(a.pos),
				Message: fmt.Sprintf("%s without holding %s; acquire the lock, or annotate a checked invariant with //bce:lockok",
					a.describe(), a.guard.lock.display()),
			})
		}
		for _, key := range sortedKeys(e.requires[n.fn], guardKey.less) {
			w := e.requires[n.fn][key]
			if w.via == nil {
				continue // direct accesses already reported above
			}
			of := func(fn *types.Func) *witness { return e.requires[fn][key] }
			out = append(out, Diagnostic{
				Analyzer: rule.Analyzer.Name,
				Pos:      e.graph.fset.Position(w.pos),
				Message: fmt.Sprintf("call into %s needs %s held (%s); acquire the lock before this call, or annotate a checked invariant with //bce:lockok",
					w.via.FullName(), key.lock.display(), witnessSummary(nil, n.fn, of)),
				Chain: witnessChain(e.graph.fset, nil, n.fn, of),
			})
		}
	}
	return out
}

// reportGoLeak flags go statements with no visible termination path.
func (e *concEngine) reportGoLeak(rule Rule) []Diagnostic {
	var out []Diagnostic
	for _, n := range e.graph.order {
		sum := e.sums[n.fn]
		if sum == nil || n.pkg == nil || !rule.Applies(n.pkg.ImportPath) {
			continue
		}
		for _, g := range sum.goSites {
			if e.goSiteSupervised(g) || e.graph.allows(n, "bgok", g.pos) {
				continue
			}
			out = append(out, Diagnostic{
				Analyzer: rule.Analyzer.Name,
				Pos:      e.graph.fset.Position(g.pos),
				Message: "goroutine has no visible termination path (no context or stop channel reaches it, " +
					"and no awaited WaitGroup tracks it); tie its lifetime to one, or annotate deliberate " +
					"fire-and-forget with //bce:bgok",
			})
		}
	}
	return out
}

// goSiteSupervised reports whether a go statement has a visible
// termination path: a lifeline argument or identifier, a channel signal
// in the spawned body, an awaited WaitGroup, or a (transitively)
// terminating callee.
func (e *concEngine) goSiteSupervised(g goSite) bool {
	if g.lifeline || g.chanSig {
		return true
	}
	for _, wg := range g.wgs {
		if e.awaitedWGs[wg] {
			return true
		}
	}
	if g.named != nil && e.terminates[g.named] {
		return true
	}
	for _, callee := range g.callees {
		if e.terminates[callee] {
			return true
		}
	}
	return false
}

// lockEdge is one lock-order edge: while holding from, fn (at pos)
// acquires to — directly, or by calling via, which acquires it
// transitively.
type lockEdge struct {
	from, to lockID // typeKeys
	fn       *types.Func
	pkg      *Package
	pos      token.Pos
	via      *types.Func
}

// reportLockOrder builds the module-wide lock-order graph and reports
// every cycle — a potential deadlock — exactly once, with the
// acquisition chains of each edge as evidence.
func (e *concEngine) reportLockOrder(rule Rule) []Diagnostic {
	edges := e.lockEdges()

	// Strongly connected components of the lock graph: every cycle —
	// including a self-loop (reacquiring a held lock) — lives inside
	// one, and one diagnostic per component reports each deadlock
	// exactly once however many edges participate.
	adj := make(map[lockID][]lockID)
	for _, edge := range edges {
		adj[edge.from] = append(adj[edge.from], edge.to)
		if _, ok := adj[edge.to]; !ok {
			adj[edge.to] = nil // a lock only ever acquired is a node too
		}
	}
	for _, tos := range adj {
		sort.Slice(tos, func(i, j int) bool { return tos[i].less(tos[j]) })
	}
	comps := sccs(sortedKeys(adj, lockID.less), func(id lockID) []lockID { return adj[id] })

	var out []Diagnostic
	for _, comp := range comps {
		inComp := make(map[lockID]bool, len(comp))
		for _, id := range comp {
			inComp[id] = true
		}
		// Representative edge per ordered pair inside the component,
		// first occurrence (deterministic order) wins.
		type pair struct{ from, to lockID }
		seen := make(map[pair]bool)
		var cycle []lockEdge
		selfLoop := false
		for _, edge := range edges {
			if !inComp[edge.from] || !inComp[edge.to] {
				continue
			}
			if edge.from == edge.to {
				selfLoop = true
			}
			p := pair{edge.from, edge.to}
			if seen[p] {
				continue
			}
			seen[p] = true
			cycle = append(cycle, edge)
		}
		if len(comp) == 1 && !selfLoop {
			continue // a single lock with no self-edge is not a cycle
		}
		if len(cycle) == 0 {
			continue
		}
		// Position the diagnostic at the first in-scope edge.
		var at *lockEdge
		for i := range cycle {
			if cycle[i].pkg != nil && rule.Applies(cycle[i].pkg.ImportPath) {
				at = &cycle[i]
				break
			}
		}
		if at == nil {
			continue
		}
		var parts []string
		var chain []ChainStep
		for _, edge := range cycle {
			parts = append(parts, e.edgeSummary(edge))
			chain = append(chain, e.edgeChain(edge)...)
		}
		out = append(out, Diagnostic{
			Analyzer: rule.Analyzer.Name,
			Pos:      e.graph.fset.Position(at.pos),
			Message:  "lock-order cycle (potential deadlock): " + strings.Join(parts, "; "),
			Chain:    chain,
		})
	}
	return out
}

// lockEdges collects every lock-order edge in deterministic order:
// direct acquisitions made while holding another lock, and call sites
// whose callee transitively acquires one.
func (e *concEngine) lockEdges() []lockEdge {
	var edges []lockEdge
	for _, n := range e.graph.order {
		sum := e.sums[n.fn]
		if sum == nil {
			continue
		}
		for _, acq := range sum.acqs {
			to := acq.id.typeKey()
			for _, h := range acq.held.sorted() {
				from := h.typeKey()
				if from == to && h.root != nil && acq.id.root != nil && h.root != acq.id.root {
					continue // provably distinct instances of the same field
				}
				edges = append(edges, lockEdge{from: from, to: to, fn: n.fn, pkg: n.pkg, pos: acq.pos})
			}
		}
		for _, c := range sum.calls {
			from := e.acquires[c.callee]
			if len(from) == 0 || len(c.held) == 0 {
				continue
			}
			for _, to := range sortedKeys(from, lockID.less) {
				for _, h := range c.held.sorted() {
					edges = append(edges, lockEdge{from: h.typeKey(), to: to, fn: n.fn, pkg: n.pkg, pos: c.pos, via: c.callee})
				}
			}
		}
	}
	return edges
}

// edgeSummary renders one edge for the cycle message.
func (e *concEngine) edgeSummary(edge lockEdge) string {
	if edge.from == edge.to {
		if edge.via != nil {
			return fmt.Sprintf("%s calls %s, which reacquires the held %s",
				edge.fn.FullName(), edge.via.FullName(), edge.to.display())
		}
		return fmt.Sprintf("%s reacquires the held %s", edge.fn.FullName(), edge.to.display())
	}
	s := fmt.Sprintf("%s acquires %s while holding %s", edge.fn.FullName(), edge.to.display(), edge.from.display())
	if edge.via != nil {
		s += " via " + edge.via.FullName()
	}
	return s
}

// edgeChain renders one edge's acquisition chain: the witness function
// and, when the acquisition happens inside a callee, the hops down to
// the raw Lock.
func (e *concEngine) edgeChain(edge lockEdge) []ChainStep {
	what := fmt.Sprintf("acquires %s while holding %s", edge.to.display(), edge.from.display())
	if edge.via != nil {
		what = fmt.Sprintf("calls %s while holding %s", edge.via.FullName(), edge.from.display())
	}
	first := ChainStep{Func: edge.fn.FullName(), Pos: e.graph.fset.Position(edge.pos), What: what}
	return witnessChain(e.graph.fset, []ChainStep{first}, edge.via,
		func(fn *types.Func) *witness { return e.acquires[fn][edge.to] })
}

// less orders requirements deterministically: by lock, reads first.
func (k guardKey) less(o guardKey) bool {
	if k.lock.sortKey() != o.lock.sortKey() {
		return k.lock.sortKey() < o.lock.sortKey()
	}
	return !k.write && o.write
}

// sortedKeys orders a fact table's keys deterministically.
func sortedKeys[K comparable, V any](m map[K]V, less func(K, K) bool) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
	return keys
}
