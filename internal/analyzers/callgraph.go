package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// callGraph is a module-wide over-approximation of "who calls whom",
// keyed by *types.Func. Static calls (pkg.F, helper(), recv.M on a
// concrete receiver) resolve exactly; calls through an interface
// resolve to the interface method, which in turn gets one edge per
// module-declared concrete type implementing it (class-hierarchy
// analysis). Function literals have no node of their own: their bodies
// are attributed to the enclosing declared function, so a fact inside
// a closure propagates to the function that created it. Calls of plain
// function *values* are opaque — the fact engine cannot see through
// them, which is the documented under-approximation of the suite.
type callGraph struct {
	fset  *token.FileSet // Load shares one FileSet across the module
	nodes map[*types.Func]*cgNode
	order []*cgNode   // packages sorted by import path, then source order
	comps [][]*cgNode // strongly connected components, callees first
}

type cgNode struct {
	fn   *types.Func
	pkg  *Package      // defining package; nil for synthetic interface-method nodes
	body *ast.FuncDecl // nil for synthetic interface-method nodes
	out  []cgEdge
}

type cgEdge struct {
	callee  *types.Func
	pos     token.Pos // call site; NoPos for CHA interface→implementation edges
	dynamic bool      // dispatched through an interface
}

// buildCallGraph constructs the graph over the loaded packages, which
// Load returns sorted by import path so node and edge order — and
// therefore every downstream fixpoint and diagnostic — is
// deterministic.
func buildCallGraph(pkgs []*Package) *callGraph {
	g := &callGraph{nodes: make(map[*types.Func]*cgNode)}
	for _, pkg := range pkgs {
		g.fset = pkg.Fset
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				n := &cgNode{fn: fn, pkg: pkg, body: fd}
				g.nodes[fn] = n
				g.order = append(g.order, n)
			}
		}
	}

	ifaceMethods := make(map[*types.Func]bool)
	for _, n := range g.order {
		ast.Inspect(n.body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := staticCallee(n.pkg.Info, call)
			if callee == nil {
				return true
			}
			dyn := isInterfaceMethod(callee)
			if dyn {
				ifaceMethods[callee] = true
			}
			n.out = append(n.out, cgEdge{callee: callee, pos: call.Pos(), dynamic: dyn})
			return true
		})
	}

	g.addInterfaceEdges(pkgs, ifaceMethods)
	g.comps = sccs(g.order, func(n *cgNode) []*cgNode {
		var succ []*cgNode
		for _, e := range n.out {
			if w := g.nodes[e.callee]; w != nil { // nil: callee outside the module
				succ = append(succ, w)
			}
		}
		return succ
	})
	return g
}

// addInterfaceEdges gives every interface method that appears as a
// callee a synthetic node with one edge per module-declared concrete
// type that implements the interface (CHA). These edges let facts flow
// from an implementation, through the interface method, to every
// dynamic call site — including cycles that pass through dynamic
// dispatch.
func (g *callGraph) addInterfaceEdges(pkgs []*Package, ifaceMethods map[*types.Func]bool) {
	var concrete []*types.Named
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); !isIface {
				concrete = append(concrete, named)
			}
		}
	}

	methods := make([]*types.Func, 0, len(ifaceMethods))
	for m := range ifaceMethods {
		methods = append(methods, m)
	}
	sort.Slice(methods, func(i, j int) bool {
		if methods[i].FullName() != methods[j].FullName() {
			return methods[i].FullName() < methods[j].FullName()
		}
		return methods[i].Pos() < methods[j].Pos()
	})

	for _, m := range methods {
		iface, ok := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		node := &cgNode{fn: m}
		for _, named := range concrete {
			var impl types.Type = named
			if !types.Implements(impl, iface) {
				impl = types.NewPointer(named)
				if !types.Implements(impl, iface) {
					continue
				}
			}
			obj, _, _ := types.LookupFieldOrMethod(impl, true, m.Pkg(), m.Name())
			cm, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			// Only methods with a body in the module carry facts;
			// promoted methods from types outside the module are opaque.
			if _, inModule := g.nodes[cm]; !inModule {
				continue
			}
			node.out = append(node.out, cgEdge{callee: cm, pos: token.NoPos})
		}
		g.nodes[m] = node
		g.order = append(g.order, node)
	}
}

// isInterfaceMethod reports whether fn is declared on an interface
// type (so a call of it dispatches dynamically).
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, ok = sig.Recv().Type().Underlying().(*types.Interface)
	return ok
}

// fixpoint drives one fact tier to its fixpoint: components are visited
// callees first, and each is swept with step until no member reports a
// change, so mutual recursion — including cycles through interface
// dispatch — converges with every member carrying the facts reachable
// from it.
func (g *callGraph) fixpoint(step func(n *cgNode) bool) {
	for _, comp := range g.comps {
		for changed := true; changed; {
			changed = false
			for _, n := range comp {
				if step(n) {
					changed = true
				}
			}
		}
	}
}

// allows reports whether a directive marker covers pos inside n's body;
// synthetic interface-method nodes carry no directives.
func (g *callGraph) allows(n *cgNode, marker string, pos token.Pos) bool {
	return n.pkg != nil && n.pkg.markers.allows(g.fset, marker, pos)
}

// sccs returns the strongly connected components reachable from roots
// (visited in the given order) via Tarjan's algorithm, which emits a
// component only after every component it reaches: for the call graph,
// callees before callers.
func sccs[N comparable](roots []N, succ func(N) []N) [][]N {
	index := make(map[N]int)
	low := make(map[N]int)
	onStack := make(map[N]bool)
	var stack []N
	var comps [][]N

	var strongConnect func(n N)
	strongConnect = func(n N) {
		index[n] = len(index)
		low[n] = index[n]
		stack = append(stack, n)
		onStack[n] = true
		for _, w := range succ(n) {
			if _, seen := index[w]; !seen {
				strongConnect(w)
				low[n] = min(low[n], low[w])
			} else if onStack[w] {
				low[n] = min(low[n], index[w])
			}
		}
		if low[n] == index[n] {
			var comp []N
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == n {
					break
				}
			}
			comps = append(comps, comp)
		}
	}
	for _, n := range roots {
		if _, seen := index[n]; !seen {
			strongConnect(n)
		}
	}
	return comps
}
