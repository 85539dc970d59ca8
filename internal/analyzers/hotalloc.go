package analyzers

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
)

// HotAlloc enforces the allocation contract on the emulation kernel: a
// function annotated //bce:hotpath — and, through the interprocedural
// fact engine (allocfacts.go), everything it transitively calls inside
// the module — must not allocate. The per-package pass reports the
// direct allocation sites inside annotated functions; laundered
// allocations (a helper that allocates, reached from a hotpath root)
// are reported at the hotpath call site with the full witness chain.
//
// Allocation sites are found by conservative AST-level reasoning:
//
//   - composite literals, make and new whose value escapes the frame
//     (returned, stored to a heap location or a captured variable,
//     passed to a non-hotpath callee); a provably frame-local value is
//     allowed, matching what the compiler stack-allocates. Struct and
//     array literals are values — copies are free — so only slice/map
//     literals and address-taken composites (&T{...}) are candidates,
//   - append that is not the x = append(x, ...) self-append idiom
//     (self-append to a retained scratch buffer grows amortized; any
//     other append may allocate a fresh backing array every call),
//   - string <-> []byte/[]rune conversions and non-constant string
//     concatenation (always allocate-and-copy),
//   - interface boxing of non-pointer-shaped values (call arguments,
//     conversions, assignments into interface-typed locations),
//   - variadic calls (the argument slice is constructed per call) and
//     any call into the fmt package,
//   - function literals that capture enclosing variables (the closure
//     and its captures move to the heap).
//
// Code under `if cond { ... }` where cond is a compile-time false
// constant (the invariant.Enabled pattern) is dead in default builds
// and is not scanned. A justified allocation — an amortized grow path,
// a cold error branch — carries //bce:allocok <reason> on the site (or
// the line above, or the enclosing function's doc comment).
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "functions annotated //bce:hotpath (and everything they transitively call in the module) " +
		"must not allocate; justify deliberate allocations with //bce:allocok <reason>",
	Run: runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	hot := hotpathFuncs(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil || !hot[fn] {
				continue
			}
			for _, site := range allocSitesIn(pass.Fset, pass.TypesInfo, fd, pass.markers, hot) {
				pass.Reportf(site.pos,
					"%s on a //bce:hotpath function; make it allocation-free, or justify with //bce:allocok <reason>",
					site.what)
			}
		}
	}
	return nil
}

// hotpathFuncs collects the functions annotated //bce:hotpath (doc
// comment, the declaration line, or the line above it).
func hotpathFuncs(pass *Pass) map[*types.Func]bool {
	hot := make(map[*types.Func]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !pass.Allowed("hotpath", fd.Pos()) {
				continue
			}
			if fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func); fn != nil {
				hot[fn] = true
			}
		}
	}
	return hot
}

// allocSite is one flagged allocation inside a function body.
type allocSite struct {
	pos  token.Pos
	what string
}

// posRange is a half-open source span.
type posRange struct{ from, to token.Pos }

func inRanges(rs []posRange, pos token.Pos) bool {
	for _, r := range rs {
		if r.from <= pos && pos < r.to {
			return true
		}
	}
	return false
}

// deadRangesIn finds statement spans eliminated in default builds:
// the body of `if cond { ... }` with a compile-time false condition
// (and the else branch of a true one) — the invariant.Enabled pattern.
func deadRangesIn(info *types.Info, body ast.Node) []posRange {
	var dead []posRange
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		switch v, known := constBool(info, ifs.Cond); {
		case known && !v:
			dead = append(dead, posRange{ifs.Body.Pos(), ifs.Body.End()})
		case known && v && ifs.Else != nil:
			dead = append(dead, posRange{ifs.Else.Pos(), ifs.Else.End()})
		}
		return true
	})
	return dead
}

// constBool evaluates a condition that the type checker folded to a
// boolean constant (a const, or !const).
func constBool(info *types.Info, e ast.Expr) (value, known bool) {
	if tv, ok := info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.Bool {
		return constant.BoolVal(tv.Value), true
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if c, ok := info.Uses[id].(*types.Const); ok && c.Val().Kind() == constant.Bool {
			return constant.BoolVal(c.Val()), true
		}
	}
	if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.NOT {
		if v, known := constBool(info, u.X); known {
			return !v, true
		}
	}
	return false, false
}

// allocScanner holds one function body's scan state.
type allocScanner struct {
	fset    *token.FileSet
	info    *types.Info
	idx     *markerIndex
	hot     map[*types.Func]bool
	fd      *ast.FuncDecl
	parents map[ast.Node]ast.Node
	dead    []posRange
	sites   map[ast.Node]allocSite // keyed by the alloc node, one report each
}

// allocSitesIn scans fd's body for allocation sites, in source order,
// already filtered through //bce:allocok directives and compile-time
// dead code.
func allocSitesIn(fset *token.FileSet, info *types.Info, fd *ast.FuncDecl, idx *markerIndex, hot map[*types.Func]bool) []allocSite {
	sc := &allocScanner{
		fset:    fset,
		info:    info,
		idx:     idx,
		hot:     hot,
		fd:      fd,
		parents: make(map[ast.Node]ast.Node),
		dead:    deadRangesIn(info, fd.Body),
		sites:   make(map[ast.Node]allocSite),
	}
	// Parent links for the escape climb.
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			sc.parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	sc.scan()

	out := make([]allocSite, 0, len(sc.sites))
	for _, s := range sc.sites {
		if inRanges(sc.dead, s.pos) || sc.idx.allows(sc.fset, "allocok", s.pos) {
			continue
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

func (sc *allocScanner) flag(n ast.Node, format string, args ...any) {
	if _, dup := sc.sites[n]; !dup {
		sc.sites[n] = allocSite{pos: n.Pos(), what: fmt.Sprintf(format, args...)}
	}
}

func (sc *allocScanner) scan() {
	ast.Inspect(sc.fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sc.scanCall(n)
		case *ast.CompositeLit:
			// Only the outermost literal of a nested construction is a
			// candidate; its elements escape (or not) with it. Value
			// struct/array composites are plain copies — they allocate
			// only when address-taken (&T{}), while slice and map
			// literals always mint backing storage.
			if sc.allocatingComposite(n) && !sc.insideCompositeLit(n) && sc.escapes(n) {
				sc.flag(n, "composite literal %s escapes the frame and allocates", typeOf(sc.info, n))
			}
		case *ast.BinaryExpr:
			sc.scanConcat(n)
		case *ast.FuncLit:
			sc.scanFuncLit(n)
		case *ast.AssignStmt:
			sc.scanAssignBoxing(n)
		}
		return true
	})
}

// scanCall dispatches one call expression to the conversion, builtin,
// fmt, variadic and boxing checks.
func (sc *allocScanner) scanCall(call *ast.CallExpr) {
	// Type conversions.
	if tv, ok := sc.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		sc.scanConversion(call, tv.Type)
		return
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := sc.info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				if sc.escapes(call) {
					sc.flag(call, "%s(%s) escapes the frame and allocates", b.Name(), typeOf(sc.info, call))
				}
			case "append":
				if !sc.selfAppend(call) {
					sc.flag(call, "append outside the x = append(x, ...) self-append idiom may allocate a fresh backing array")
				}
			}
			return
		}
	}
	if fn := staticCallee(sc.info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		sc.flag(call, "call into fmt.%s allocates (formatting state and boxed arguments)", fn.Name())
		return
	}
	sig, _ := typeOf(sc.info, call.Fun).(*types.Signature)
	if sig == nil {
		return
	}
	if sig.Variadic() && call.Ellipsis == token.NoPos && len(call.Args) >= sig.Params().Len() {
		sc.flag(call, "variadic call constructs a temporary argument slice")
	}
	// Boxing of fixed (non-variadic) interface parameters.
	fixed := sig.Params().Len()
	if sig.Variadic() {
		fixed--
	}
	for i := 0; i < fixed && i < len(call.Args); i++ {
		if isInterface(sig.Params().At(i).Type()) && boxes(typeOf(sc.info, call.Args[i])) {
			sc.flag(call.Args[i], "passing %s boxes it into an interface and allocates", typeOf(sc.info, call.Args[i]))
		}
	}
}

// scanConversion flags string<->byte conversions and interface boxing
// through an explicit conversion.
func (sc *allocScanner) scanConversion(call *ast.CallExpr, to types.Type) {
	from := typeOf(sc.info, call.Args[0])
	if from == nil {
		return
	}
	tu, fu := to.Underlying(), from.Underlying()
	switch {
	case isString(tu) && isByteOrRuneSlice(fu), isByteOrRuneSlice(tu) && isString(fu):
		sc.flag(call, "conversion %s allocates and copies", types.ExprString(call))
	case isInterface(tu) && boxes(from):
		sc.flag(call, "conversion %s boxes a non-pointer value and allocates", types.ExprString(call))
	}
}

// scanConcat flags non-constant string concatenation, once per chain.
func (sc *allocScanner) scanConcat(b *ast.BinaryExpr) {
	if b.Op != token.ADD || !isString(typeOfUnderlying(sc.info, b)) {
		return
	}
	if tv, ok := sc.info.Types[b]; ok && tv.Value != nil {
		return // constant-folded at compile time
	}
	if p, ok := sc.parents[b].(*ast.BinaryExpr); ok && p.Op == token.ADD && isString(typeOfUnderlying(sc.info, p)) {
		return // an operand of a larger concat; flag the outermost only
	}
	sc.flag(b, "string concatenation allocates")
}

// scanFuncLit flags closures that capture enclosing variables.
func (sc *allocScanner) scanFuncLit(lit *ast.FuncLit) {
	var captured *types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := sc.info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= sc.fd.Pos() && v.Pos() <= sc.fd.End() &&
			(v.Pos() < lit.Pos() || v.Pos() > lit.End()) {
			captured = v
		}
		return true
	})
	if captured != nil {
		sc.flag(lit, "closure captures %s and allocates", captured.Name())
	}
}

// scanAssignBoxing flags assignments that box a concrete value into an
// interface-typed location.
func (sc *allocScanner) scanAssignBoxing(as *ast.AssignStmt) {
	if as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		lt := typeOf(sc.info, as.Lhs[i])
		if lt == nil {
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := sc.info.Uses[id]; obj != nil {
					lt = obj.Type()
				}
			}
		}
		if lt != nil && isInterface(lt.Underlying()) && boxes(typeOf(sc.info, as.Rhs[i])) {
			sc.flag(as.Rhs[i], "assigning %s into an interface boxes it and allocates", typeOf(sc.info, as.Rhs[i]))
		}
	}
}

// selfAppend reports whether the append call is the amortized
// x = append(x, ...) idiom: the destination expression is structurally
// identical to the appended-to operand, so growth is retained and
// amortizes across calls.
func (sc *allocScanner) selfAppend(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	as, ok := sc.parents[call].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN {
		return false
	}
	for i, r := range as.Rhs {
		if r == call && i < len(as.Lhs) {
			return types.ExprString(as.Lhs[i]) == types.ExprString(call.Args[0])
		}
	}
	return false
}

// allocatingComposite reports whether the literal itself mints heap
// storage: slice and map literals allocate their backing; struct and
// array literals are values, heap-bound only when address-taken.
func (sc *allocScanner) allocatingComposite(lit *ast.CompositeLit) bool {
	switch typeOfUnderlying(sc.info, lit).(type) {
	case *types.Slice, *types.Map:
		return true
	}
	var n ast.Node = lit
	for {
		p := sc.parents[n]
		if pe, ok := p.(*ast.ParenExpr); ok {
			n = pe
			continue
		}
		u, ok := p.(*ast.UnaryExpr)
		return ok && u.Op == token.AND
	}
}

// insideCompositeLit reports whether the literal is an element of an
// enclosing composite construction.
func (sc *allocScanner) insideCompositeLit(n ast.Node) bool {
	for p := sc.parents[n]; p != nil; p = sc.parents[p] {
		switch p.(type) {
		case *ast.CompositeLit, *ast.KeyValueExpr:
			return true
		case *ast.UnaryExpr, *ast.ParenExpr:
			n = p
			continue
		}
		return false
	}
	return false
}

// escapes decides whether a freshly allocated value leaves the frame:
// it climbs the parent chain toward the consuming context, and follows
// local variables the value flows into (their every use is climbed the
// same way). Unknown contexts count as escaping — the analysis is
// deliberately conservative.
func (sc *allocScanner) escapes(n ast.Node) bool {
	work := []ast.Node{n}
	seenVar := make(map[*types.Var]bool)
	for len(work) > 0 {
		h := work[len(work)-1]
		work = work[:len(work)-1]
		esc, holder := sc.escapeStep(h)
		if esc {
			return true
		}
		if holder == nil || seenVar[holder] {
			continue
		}
		seenVar[holder] = true
		// The value now lives in a local; every use of that local is a
		// new context to climb. A use inside a nested function literal
		// is a capture, which moves the variable to the heap.
		ast.Inspect(sc.fd.Body, func(u ast.Node) bool {
			id, ok := u.(*ast.Ident)
			if !ok || sc.info.Uses[id] != holder {
				return true
			}
			work = append(work, id)
			return true
		})
		if sc.capturedByLit(holder) {
			return true
		}
	}
	return false
}

// capturedByLit reports whether any use of v sits inside a function
// literal nested in the scanned body.
func (sc *allocScanner) capturedByLit(v *types.Var) bool {
	captured := false
	ast.Inspect(sc.fd.Body, func(u ast.Node) bool {
		if captured {
			return false
		}
		if id, ok := u.(*ast.Ident); ok && sc.info.Uses[id] == v && sc.insideFuncLit(id) {
			captured = true
		}
		return true
	})
	return captured
}

func (sc *allocScanner) insideFuncLit(n ast.Node) bool {
	for p := sc.parents[n]; p != nil; p = sc.parents[p] {
		if _, ok := p.(*ast.FuncLit); ok {
			return true
		}
	}
	return false
}

// escapeStep climbs from one expression to its consuming context,
// returning either a verdict or the local variable the value flowed
// into (whose uses the caller then chases).
func (sc *allocScanner) escapeStep(n ast.Node) (escaped bool, holder *types.Var) {
	child := n
	for {
		parent := sc.parents[child]
		if parent == nil {
			return false, nil
		}
		switch p := parent.(type) {
		case *ast.ParenExpr, *ast.UnaryExpr, *ast.CompositeLit, *ast.KeyValueExpr,
			*ast.StarExpr, *ast.SelectorExpr, *ast.SliceExpr, *ast.TypeAssertExpr:
			// Derived value (or element of a larger construction): the
			// verdict is the enclosing context's.
			child = parent
		case *ast.IndexExpr:
			if p.Index == child {
				return false, nil // used as an index, not retained
			}
			child = parent
		case *ast.ReturnStmt, *ast.SendStmt, *ast.GoStmt, *ast.DeferStmt:
			return true, nil
		case *ast.AssignStmt:
			for i, r := range p.Rhs {
				if r != child {
					continue
				}
				if len(p.Lhs) != len(p.Rhs) {
					return true, nil
				}
				if id, ok := p.Lhs[i].(*ast.Ident); ok {
					if id.Name == "_" {
						return false, nil
					}
					obj := sc.info.Defs[id]
					if obj == nil {
						obj = sc.info.Uses[id]
					}
					if v, ok := obj.(*types.Var); ok && !v.IsField() && sc.localVar(v) {
						return false, v
					}
				}
				return true, nil // store through a selector, index, deref, or non-local
			}
			return false, nil // part of the assignment target: a write destination, not a value
		case *ast.ValueSpec:
			for i, r := range p.Values {
				if r != child || i >= len(p.Names) {
					continue
				}
				if v, ok := sc.info.Defs[p.Names[i]].(*types.Var); ok && sc.localVar(v) {
					return false, v
				}
				return true, nil
			}
			return false, nil
		case *ast.CallExpr:
			if p.Fun == child {
				return false, nil // calling the value retains nothing
			}
			return sc.callArgEscapes(p, child)
		case *ast.ExprStmt, *ast.BinaryExpr, *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt,
			*ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.CaseClause, *ast.BlockStmt,
			*ast.IncDecStmt, *ast.LabeledStmt:
			return false, nil
		default:
			return true, nil // unknown context: assume the worst
		}
	}
}

// callArgEscapes decides the verdict for a fresh value passed as a
// call argument: copied-by builtins keep it local, hotpath callees are
// themselves under the no-alloc/no-retain contract, everything else is
// an escape.
func (sc *allocScanner) callArgEscapes(call *ast.CallExpr, arg ast.Node) (bool, *types.Var) {
	if tv, ok := sc.info.Types[call.Fun]; ok && tv.IsType() {
		return sc.escapeStep(call) // conversion: the verdict is the converted value's
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := sc.info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap", "copy", "delete", "clear", "min", "max":
				return false, nil
			case "append":
				if len(call.Args) > 0 && call.Args[0] == arg {
					return sc.escapeStep(call) // appended-to: same backing flows onward
				}
				return true, nil // appended element: stored into the slice
			}
			return true, nil
		}
	}
	if fn := staticCallee(sc.info, call); fn != nil && sc.hot[fn] {
		return false, nil
	}
	return true, nil
}

// localVar reports whether v is declared inside the scanned function.
func (sc *allocScanner) localVar(v *types.Var) bool {
	return v.Pos() >= sc.fd.Pos() && v.Pos() <= sc.fd.End()
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := info.Uses[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

func typeOfUnderlying(info *types.Info, e ast.Expr) types.Type {
	t := typeOf(info, e)
	if t == nil {
		return nil
	}
	return t.Underlying()
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// boxes reports whether storing a value of type t into an interface
// allocates: pointer-shaped kinds (pointers, channels, maps, funcs)
// fit in the interface word; everything else is copied to the heap.
func boxes(t types.Type) bool {
	if t == nil || isInterface(t) {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		switch u.Kind() {
		case types.UntypedNil, types.UnsafePointer:
			return false
		}
	}
	return true
}
