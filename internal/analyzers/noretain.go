package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoRetain enforces the scratch-reuse contract: a function annotated
// //bce:scratch (the reusable-simulator pattern — rrsim.Simulator,
// runner scratch buffers, the client's fingerprint arrays) must not
// retain references to caller-provided slices or pointers beyond the
// call. Retention is the aliasing bug class bit-identical goldens
// cannot catch until a later run mutates through the stale alias.
//
// The check is intraprocedural taint tracking: reference-carrying
// parameters (slices, pointers, maps, channels, funcs, interfaces, and
// any struct or array containing one — strings are immutable and
// exempt) are tainted, taint flows through local aliases, field and
// element selections, address-taking, and composite construction, and
// a flagged retention is a store whose destination roots at the
// receiver or a package-level variable (including the copy builtin
// when the element type itself carries references, and channel sends).
// append([]T(nil), src...) and copy into value-element buffers are
// recognized as deep copies and stay untainted.
//
// Known imprecision, by design: stores through a pointer local that
// aliases the receiver are missed, ownership handoff between calls is
// not modeled, and callees are opaque (a helper that retains must be
// annotated //bce:scratch itself to be checked). Deliberate,
// documented aliasing — e.g. sched.Decision aliasing the Enforcer's
// scratch until the next Enforce — carries //bce:retainok <reason>.
var NoRetain = &Analyzer{
	Name: "noretain",
	Doc: "APIs annotated //bce:scratch must not retain caller-provided slices or pointers " +
		"beyond the call; justify deliberate aliasing with //bce:retainok <reason>",
	Run: runNoRetain,
}

func runNoRetain(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !pass.Allowed("scratch", fd.Pos()) {
				continue
			}
			newRetainChecker(pass, fd).check()
		}
	}
	return nil
}

type retainChecker struct {
	pass  *Pass
	fd    *ast.FuncDecl
	recv  types.Object
	taint map[types.Object]bool
}

func newRetainChecker(pass *Pass, fd *ast.FuncDecl) *retainChecker {
	c := &retainChecker{pass: pass, fd: fd, taint: make(map[types.Object]bool)}
	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		c.recv = pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				obj := pass.TypesInfo.Defs[name]
				if obj != nil && containsRefs(obj.Type()) {
					c.taint[obj] = true
				}
			}
		}
	}
	return c
}

func (c *retainChecker) check() {
	c.propagateAliases()
	ast.Inspect(c.fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			c.checkAssign(n)
		case *ast.CallExpr:
			c.checkCopy(n)
		case *ast.SendStmt:
			if root := c.persistentRoot(n.Chan); root != "" && c.refLike(n.Value) && c.tainted(n.Value) {
				c.flag(n.Pos(), root)
			}
		}
		return true
	})
}

// propagateAliases grows the taint set through local assignments and
// range bindings until it stabilizes.
func (c *retainChecker) propagateAliases() {
	for changed := true; changed; {
		changed = false
		ast.Inspect(c.fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						if c.taintLocal(n.Lhs[i], c.tainted(n.Rhs[i])) {
							changed = true
						}
					}
				} else if len(n.Rhs) == 1 && c.tainted(n.Rhs[0]) {
					for _, l := range n.Lhs {
						if c.taintLocal(l, true) {
							changed = true
						}
					}
				}
			case *ast.RangeStmt:
				if c.tainted(n.X) {
					if c.taintLocal(n.Key, true) {
						changed = true
					}
					if c.taintLocal(n.Value, true) {
						changed = true
					}
				}
			case *ast.GenDecl:
				for _, spec := range n.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						if i < len(vs.Values) && c.tainted(vs.Values[i]) {
							if obj := c.pass.TypesInfo.Defs[name]; obj != nil && containsRefs(obj.Type()) && !c.taint[obj] {
								c.taint[obj] = true
								changed = true
							}
						}
					}
				}
			}
			return true
		})
	}
}

// taintLocal marks the variable behind a plain-identifier assignment
// target as tainted; reports whether the set changed.
func (c *retainChecker) taintLocal(lhs ast.Expr, tainted bool) bool {
	if !tainted {
		return false
	}
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return false
	}
	obj := c.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = c.pass.TypesInfo.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || !containsRefs(v.Type()) {
		return false
	}
	if v.Pos() < c.fd.Pos() || v.Pos() > c.fd.End() {
		return false // not a local; persistent stores are flagged separately
	}
	if c.taint[v] {
		return false
	}
	c.taint[v] = true
	return true
}

// checkAssign flags stores of tainted references into persistent
// destinations (the receiver or a package-level variable).
func (c *retainChecker) checkAssign(as *ast.AssignStmt) {
	if len(as.Lhs) == len(as.Rhs) {
		for i := range as.Lhs {
			if root := c.persistentRoot(as.Lhs[i]); root != "" && c.refLike(as.Rhs[i]) && c.tainted(as.Rhs[i]) {
				c.flag(as.Lhs[i].Pos(), root)
			}
		}
		return
	}
	if len(as.Rhs) == 1 && c.tainted(as.Rhs[0]) {
		for _, l := range as.Lhs {
			if root := c.persistentRoot(l); root != "" && containsRefs(typeOf(c.pass.TypesInfo, l)) {
				c.flag(l.Pos(), root)
			}
		}
	}
}

// checkCopy flags copy(dst, src) where dst is persistent, the element
// type itself carries references, and src is tainted — the elements
// land in retained storage still pointing at caller memory. Value
// elements are a deep copy and are fine.
func (c *retainChecker) checkCopy(call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) != 2 {
		return
	}
	if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "copy" {
		return
	}
	root := c.persistentRoot(call.Args[0])
	if root == "" || !c.tainted(call.Args[1]) {
		return
	}
	if s, ok := typeOfUnderlying(c.pass.TypesInfo, call.Args[0]).(*types.Slice); ok && containsRefs(s.Elem()) {
		c.flag(call.Pos(), root)
	}
}

func (c *retainChecker) flag(pos token.Pos, root string) {
	if c.pass.Allowed("retainok", pos) {
		return
	}
	c.pass.Reportf(pos,
		"//bce:scratch function stores a caller-provided reference into %s, retaining it beyond the call; copy the contents instead, or justify with //bce:retainok <reason>",
		root)
}

// refLike reports whether the expression's static type can carry a
// reference worth retaining.
func (c *retainChecker) refLike(e ast.Expr) bool {
	return containsRefs(typeOf(c.pass.TypesInfo, e))
}

// persistentRoot climbs a store destination to its base identifier and
// returns a display name when that base outlives the call: the
// receiver, or a package-level variable. Caller-provided out-params
// are the caller's own memory and do not count as retention.
func (c *retainChecker) persistentRoot(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			obj := c.pass.TypesInfo.Uses[x]
			if obj == nil {
				obj = c.pass.TypesInfo.Defs[x]
			}
			if obj == nil {
				return ""
			}
			if c.recv != nil && obj == c.recv {
				return "the receiver (" + x.Name + ")"
			}
			if v, ok := obj.(*types.Var); ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return "package-level " + x.Name
			}
			return ""
		default:
			return ""
		}
	}
}

// tainted reports whether the expression may carry a caller-provided
// reference, bottom-up: selections, slicing, and address-taking keep
// taint; indexes used as keys, deep copies, and plain values do not.
func (c *retainChecker) tainted(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		obj := c.pass.TypesInfo.Uses[e]
		return obj != nil && c.taint[obj]
	case *ast.ParenExpr:
		return c.tainted(e.X)
	case *ast.SelectorExpr:
		return c.tainted(e.X)
	case *ast.IndexExpr:
		return c.tainted(e.X)
	case *ast.SliceExpr:
		return c.tainted(e.X)
	case *ast.StarExpr:
		return c.tainted(e.X)
	case *ast.TypeAssertExpr:
		return c.tainted(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return c.tainted(e.X)
		}
		return false
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if c.tainted(el) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		return c.taintedCall(e)
	case *ast.FuncLit:
		found := false
		ast.Inspect(e.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := c.pass.TypesInfo.Uses[id]; obj != nil && c.taint[obj] {
					found = true
				}
			}
			return !found
		})
		return found
	}
	return false
}

// taintedCall handles calls inside taint expressions: conversions pass
// taint through, append to a fresh slice is a deep copy unless the
// elements themselves carry references, and ordinary calls are
// conservative (tainted in, tainted out).
func (c *retainChecker) taintedCall(call *ast.CallExpr) bool {
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return c.tainted(call.Args[0])
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap", "copy", "make", "new", "min", "max":
				return false
			case "append":
				// append copies the appended elements, so the result is
				// tainted only if the destination already was, or the
				// element type itself carries references (copying a
				// caller's *Job still retains the pointee). The
				// value-element deep-copy idioms — s.buf =
				// append(s.buf[:0], in...) and append([]T(nil), in...)
				// — stay clean.
				if len(call.Args) == 0 {
					return false
				}
				if c.tainted(call.Args[0]) {
					return true
				}
				s, ok := typeOfUnderlying(c.pass.TypesInfo, call).(*types.Slice)
				if !ok || !containsRefs(s.Elem()) {
					return false
				}
				for _, a := range call.Args[1:] {
					if c.tainted(a) {
						return true
					}
				}
				return false
			}
		}
	}
	for _, a := range call.Args {
		if c.tainted(a) {
			return true
		}
	}
	return false
}

// containsRefs reports whether a value of type t can carry a reference
// into caller memory: pointers, slices, maps, channels, funcs,
// interfaces, or any struct/array containing one. Strings are
// immutable, so retaining one cannot alias a later mutation.
func containsRefs(t types.Type) bool {
	return refsWalk(t, make(map[types.Type]bool))
}

func refsWalk(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if refsWalk(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return refsWalk(u.Elem(), seen)
	}
	return false
}
