package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
)

// This file is the intra-procedural half of the concurrency tier
// (guardedby / goleak / lockorder, see concurrency.go): lock identity,
// //bce:guardedby annotation collection, and a per-function body scan
// that tracks the set of locks held at every field access, call site,
// lock acquisition and go statement. The scan is path-insensitive by
// design: branches are analyzed with a copy of the held set and their
// lock operations do not escape the branch, so an early `mu.Unlock();
// return` inside an if does not release the lock for the code after
// it. sync.Mutex.TryLock is ignored entirely (its acquisition is
// conditional), and ownership transfer through channels is invisible —
// both documented limitations (DESIGN.md §10.2).

// lockStrength distinguishes shared (RLock) from exclusive (Lock)
// acquisition: a read access is satisfied by either, a write only by
// the exclusive lock.
type lockStrength uint8

const (
	readHeld lockStrength = iota + 1
	writeHeld
)

// lockID identifies a mutex. Field mutexes are identified by their
// declaring struct type and field name — type-based, so a helper's
// "requires Service.mu" is satisfied by any held Service.mu, which
// over-approximates instance identity (two distinct Services are
// indistinguishable; the root object sharpens the few checks where it
// matters and is resolvable). Package-level and local mutex variables
// are identified by their object.
type lockID struct {
	root  types.Object // base variable of the selector chain (s in s.mu), when resolvable
	owner string       // declaring struct as "pkgpath.Type" for field mutexes; "" otherwise
	field string       // field name for field mutexes
}

// typeKey drops instance identity: the key requirement matching and the
// lock-order graph run on. Field locks collapse to (owner, field);
// variable locks keep their object (a variable is its own singleton).
func (id lockID) typeKey() lockID {
	if id.owner != "" {
		return lockID{owner: id.owner, field: id.field}
	}
	return lockID{root: id.root}
}

// display renders the lock for diagnostics: "serve.Service.mu" for
// fields, "dead.amu" for package variables, "mu (local)" for locals.
func (id lockID) display() string {
	if id.owner != "" {
		dot := strings.LastIndex(id.owner, ".")
		slash := strings.LastIndex(id.owner, "/")
		short := id.owner
		if dot > slash {
			short = path.Base(id.owner[:dot]) + id.owner[dot:]
		}
		return short + "." + id.field
	}
	if v, ok := id.root.(*types.Var); ok {
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return path.Base(v.Pkg().Path()) + "." + v.Name()
		}
		return v.Name() + " (local)"
	}
	return "<unknown lock>"
}

// sortKey orders lockIDs deterministically (display ties broken by
// declaration position).
func (id lockID) sortKey() string {
	pos := 0
	if id.root != nil {
		pos = int(id.root.Pos())
	}
	return fmt.Sprintf("%s.%s/%s#%d", id.owner, id.field, id.display(), pos)
}

func (id lockID) less(o lockID) bool { return id.sortKey() < o.sortKey() }

// heldSet is the set of locks held at a program point, keyed by full
// (instance-qualified where possible) lockID.
type heldSet map[lockID]lockStrength

func (h heldSet) clone() heldSet {
	c := make(heldSet, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// satisfies reports whether some held lock matches the guard's typeKey
// at sufficient strength (write access needs the exclusive lock).
func (h heldSet) satisfies(guard lockID, write bool) bool {
	for id, strength := range h {
		if id.typeKey() != guard {
			continue
		}
		if !write || strength == writeHeld {
			return true
		}
	}
	return false
}

// sorted returns the held locks in deterministic order.
func (h heldSet) sorted() []lockID {
	ids := make([]lockID, 0, len(h))
	for id := range h {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].sortKey() < ids[j].sortKey() })
	return ids
}

// guardSpec is one //bce:guardedby annotation, resolved: the guarded
// field must only be accessed while lock (a typeKey) is held.
type guardSpec struct {
	lock    lockID // type-level guard
	display string // "serve.job.state", for diagnostics
}

// guardTable maps every annotated field object to its guard.
type guardTable map[*types.Var]guardSpec

// badGuard is a malformed annotation, reported by the guardedby rule.
type badGuard struct {
	pkg     *Package
	pos     token.Pos
	message string
}

// directiveArg extracts the argument of a //bce:<name> <arg> directive
// from a comment group: "//bce:guardedby mu — note" yields ("mu", true).
func directiveArg(cg *ast.CommentGroup, name string) (string, bool) {
	if cg == nil {
		return "", false
	}
	for _, c := range cg.List {
		text := strings.TrimPrefix(c.Text, "//")
		text, ok := strings.CutPrefix(strings.TrimSpace(text), "bce:")
		if !ok {
			continue
		}
		dir, rest, _ := strings.Cut(text, " ")
		if dir != name {
			continue
		}
		arg, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
		return arg, true
	}
	return "", false
}

// collectGuards resolves every //bce:guardedby annotation in the loaded
// packages. The argument names either a sibling field of the same
// struct ("mu"), a field of another struct in the same package
// ("Service.mu" — for records owned and locked by a containing type),
// or a package-level mutex variable.
func collectGuards(pkgs []*Package) (guardTable, []badGuard) {
	guards := make(guardTable)
	var bad []badGuard
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					collectStructGuards(pkg, ts.Name.Name, st, guards, &bad)
				}
			}
		}
	}
	return guards, bad
}

func collectStructGuards(pkg *Package, structName string, st *ast.StructType, guards guardTable, bad *[]badGuard) {
	owner := pkg.ImportPath + "." + structName
	shortOwner := path.Base(pkg.ImportPath) + "." + structName
	for _, field := range st.Fields.List {
		arg, ok := directiveArg(field.Comment, "guardedby")
		if !ok {
			arg, ok = directiveArg(field.Doc, "guardedby")
		}
		if !ok {
			continue
		}
		lock, err := resolveGuardArg(pkg, owner, st, arg)
		if err != "" {
			*bad = append(*bad, badGuard{pkg: pkg, pos: field.Pos(), message: err})
			continue
		}
		for _, name := range field.Names {
			fv, ok := pkg.Info.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			guards[fv] = guardSpec{lock: lock, display: shortOwner + "." + name.Name}
		}
	}
}

// resolveGuardArg resolves a guardedby argument to a type-level lockID,
// or a non-empty error message.
func resolveGuardArg(pkg *Package, owner string, st *ast.StructType, arg string) (lockID, string) {
	if arg == "" {
		return lockID{}, "//bce:guardedby needs an argument: a sibling mutex field, Type.field, or a package-level mutex"
	}
	if typ, field, qualified := strings.Cut(arg, "."); qualified {
		return lockID{owner: pkg.ImportPath + "." + typ, field: field}, ""
	}
	for _, f := range st.Fields.List {
		for _, name := range f.Names {
			if name.Name == arg {
				return lockID{owner: owner, field: arg}, ""
			}
		}
	}
	if obj, ok := pkg.Types.Scope().Lookup(arg).(*types.Var); ok {
		return lockID{root: obj}, ""
	}
	return lockID{}, fmt.Sprintf("//bce:guardedby %s: no sibling field or package-level variable of that name", arg)
}

// --- per-function summaries ---

// fieldAccess is one read or write of a guarded field, with the locks
// held at that point.
type fieldAccess struct {
	pos   token.Pos
	guard guardSpec
	write bool
	held  heldSet
}

// describe names the access: "write of serve.job.state".
func (a fieldAccess) describe() string {
	if a.write {
		return "write of " + a.guard.display
	}
	return "read of " + a.guard.display
}

// callSite is one statically resolved call, with the locks held around
// it — the joint currency of requirement discharge (guardedby) and
// lock-order edge construction (lockorder).
type callSite struct {
	pos    token.Pos
	callee *types.Func
	held   heldSet
}

// lockAcq is one direct Lock/RLock, with the locks already held when it
// executes.
type lockAcq struct {
	id   lockID
	pos  token.Pos
	held heldSet
}

// goSite is one go statement and the termination signals visible at it.
type goSite struct {
	pos      token.Pos
	named    *types.Func   // go f(...) with a statically resolved f
	callees  []*types.Func // static callees inside a spawned closure
	lifeline bool          // a context/receivable-channel argument or context identifier in the body
	chanSig  bool          // the spawned body receives, selects, or ranges over a channel
	wgs      []types.Object
}

// funcSummary is everything the module-level concurrency engine needs
// to know about one function body.
type funcSummary struct {
	fn       *types.Func
	pkg      *Package
	accesses []fieldAccess
	calls    []callSite
	acqs     []lockAcq
	goSites  []goSite
	termSeed bool           // body contains a receive, select, or range over a channel
	wgWaits  []types.Object // sync.WaitGroups this body calls Wait on
}

// scanner walks one function body in statement order.
type scanner struct {
	info   *types.Info
	guards guardTable
	sum    *funcSummary
	// spawned is non-nil while scanning the body of a go-spawned
	// function literal: termination signals found there belong to the
	// corresponding goSite.
	spawned *goSite
}

// summarize scans one declared function body.
func summarize(n *cgNode, guards guardTable) *funcSummary {
	sc := &scanner{info: n.pkg.Info, guards: guards, sum: &funcSummary{fn: n.fn, pkg: n.pkg}}
	sc.stmts(n.body.Body.List, make(heldSet))
	return sc.sum
}

func (sc *scanner) stmts(list []ast.Stmt, held heldSet) {
	for _, st := range list {
		sc.stmt(st, held)
	}
}

// stmt processes one statement, mutating held for sequential lock
// operations and forking a copy for nested blocks.
func (sc *scanner) stmt(st ast.Stmt, held heldSet) {
	switch st := st.(type) {
	case nil:
	case *ast.ExprStmt:
		sc.expr(st.X, held)
		sc.applyLockOp(st.X, held)
	case *ast.DeferStmt:
		// A deferred Unlock holds the lock to function end (no held
		// change); any other deferred call is recorded with the locks
		// held at the defer statement.
		sc.deferredCall(st.Call, held)
	case *ast.GoStmt:
		sc.goStmt(st, held)
	case *ast.SendStmt:
		sc.expr(st.Chan, held)
		sc.expr(st.Value, held)
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			sc.expr(rhs, held)
		}
		for _, lhs := range st.Lhs {
			sc.writeTarget(lhs, held)
		}
	case *ast.IncDecStmt:
		sc.writeTarget(st.X, held)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						sc.expr(v, held)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			sc.expr(e, held)
		}
	case *ast.IfStmt:
		sc.stmt(st.Init, held)
		sc.expr(st.Cond, held)
		sc.stmts(st.Body.List, held.clone())
		if st.Else != nil {
			sc.stmt(st.Else, held.clone())
		}
	case *ast.ForStmt:
		sc.stmt(st.Init, held)
		if st.Cond != nil {
			sc.expr(st.Cond, held)
		}
		inner := held.clone()
		sc.stmts(st.Body.List, inner)
		sc.stmt(st.Post, inner)
	case *ast.RangeStmt:
		sc.expr(st.X, held)
		if tv, ok := sc.info.Types[st.X]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				sc.termSignal()
			}
		}
		if st.Tok == token.ASSIGN {
			sc.writeTarget(st.Key, held)
			sc.writeTarget(st.Value, held)
		}
		sc.stmts(st.Body.List, held.clone())
	case *ast.SwitchStmt:
		sc.stmt(st.Init, held)
		sc.expr(st.Tag, held)
		for _, cc := range st.Body.List {
			if cc, ok := cc.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					sc.expr(e, held)
				}
				sc.stmts(cc.Body, held.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		sc.stmt(st.Init, held)
		sc.stmt(st.Assign, held)
		for _, cc := range st.Body.List {
			if cc, ok := cc.(*ast.CaseClause); ok {
				sc.stmts(cc.Body, held.clone())
			}
		}
	case *ast.SelectStmt:
		sc.termSignal()
		for _, cc := range st.Body.List {
			if cc, ok := cc.(*ast.CommClause); ok {
				inner := held.clone()
				sc.stmt(cc.Comm, inner)
				sc.stmts(cc.Body, inner)
			}
		}
	case *ast.BlockStmt:
		sc.stmts(st.List, held)
	case *ast.LabeledStmt:
		sc.stmt(st.Stmt, held)
	}
}

// writeTarget records e as a write when it is a guarded field (or an
// element of one); its subexpressions are reads.
func (sc *scanner) writeTarget(e ast.Expr, held heldSet) {
	switch e := ast.Unparen(e).(type) {
	case nil:
	case *ast.SelectorExpr:
		if spec, ok := sc.guardOf(e); ok {
			sc.sum.accesses = append(sc.sum.accesses, fieldAccess{
				pos: e.Sel.Pos(), guard: spec, write: true, held: held.clone(),
			})
			sc.expr(e.X, held)
			return
		}
		sc.expr(e, held)
	case *ast.IndexExpr:
		// Writing s.jobs[id] mutates the guarded map/slice itself.
		sc.writeTarget(e.X, held)
		sc.expr(e.Index, held)
	case *ast.StarExpr:
		sc.expr(e.X, held)
	default:
		sc.expr(e, held)
	}
}

// expr records guarded-field reads, call sites and termination signals
// in an expression tree. Function literals are separate scopes: their
// bodies start with no locks held, and their own lock operations are
// tracked within.
func (sc *scanner) expr(e ast.Expr, held heldSet) {
	switch e := e.(type) {
	case nil:
	case *ast.Ident:
		if sc.spawned != nil && isContextType(sc.typeOf(e)) {
			sc.spawned.lifeline = true
		}
	case *ast.SelectorExpr:
		if spec, ok := sc.guardOf(e); ok {
			sc.sum.accesses = append(sc.sum.accesses, fieldAccess{
				pos: e.Sel.Pos(), guard: spec, held: held.clone(),
			})
		}
		if sc.spawned != nil && isContextType(sc.typeOf(e)) {
			sc.spawned.lifeline = true
		}
		sc.expr(e.X, held)
	case *ast.CallExpr:
		sc.call(e, held)
	case *ast.FuncLit:
		sc.funcLit(e)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			sc.termSignal()
		}
		sc.expr(e.X, held)
	case *ast.BinaryExpr:
		sc.expr(e.X, held)
		sc.expr(e.Y, held)
	case *ast.ParenExpr:
		sc.expr(e.X, held)
	case *ast.StarExpr:
		sc.expr(e.X, held)
	case *ast.IndexExpr:
		sc.expr(e.X, held)
		sc.expr(e.Index, held)
	case *ast.IndexListExpr:
		sc.expr(e.X, held)
	case *ast.SliceExpr:
		sc.expr(e.X, held)
		sc.expr(e.Low, held)
		sc.expr(e.High, held)
		sc.expr(e.Max, held)
	case *ast.TypeAssertExpr:
		sc.expr(e.X, held)
	case *ast.KeyValueExpr:
		// Struct-literal keys name fields without accessing an object —
		// construction precedes publication, so they are exempt. Map
		// keys are ordinary expressions.
		if key, ok := e.Key.(*ast.Ident); ok {
			if v, isVar := sc.info.Uses[key].(*types.Var); isVar && v.IsField() {
				sc.expr(e.Value, held)
				return
			}
		}
		sc.expr(e.Key, held)
		sc.expr(e.Value, held)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			sc.expr(el, held)
		}
	case *ast.Ellipsis:
		sc.expr(e.Elt, held)
	}
}

// call records one call expression: mutex operations are handled by
// applyLockOp at statement level, WaitGroup Wait/Done feed the goroutine
// lifecycle analysis, and everything else becomes a callSite.
func (sc *scanner) call(e *ast.CallExpr, held heldSet) {
	callee := staticCallee(sc.info, e)
	switch {
	case callee == nil:
		// Function value, builtin, or conversion: opaque.
	case isMutexMethod(callee) != "":
		// Lock-state effects are applied by the enclosing statement.
	case isWaitGroupMethod(callee, "Wait"):
		if obj := receiverObject(sc.info, e); obj != nil {
			sc.sum.wgWaits = append(sc.sum.wgWaits, obj)
		}
	case isWaitGroupMethod(callee, "Done"):
		if sc.spawned != nil {
			if obj := receiverObject(sc.info, e); obj != nil {
				sc.spawned.wgs = append(sc.spawned.wgs, obj)
			}
		}
	default:
		sc.sum.calls = append(sc.sum.calls, callSite{pos: e.Pos(), callee: callee, held: held.clone()})
		if sc.spawned != nil {
			sc.spawned.callees = append(sc.spawned.callees, callee)
		}
	}
	sc.expr(e.Fun, held)
	for _, a := range e.Args {
		sc.expr(a, held)
	}
}

// funcLit scans a function literal body as its own scope: no locks held
// on entry, lock operations tracked within. Accesses and calls land in
// the enclosing function's summary.
func (sc *scanner) funcLit(lit *ast.FuncLit) {
	sc.stmts(lit.Body.List, make(heldSet))
}

// deferredCall handles `defer f(...)`: a deferred Unlock pins the lock
// held to function end; other deferred work is scanned normally.
func (sc *scanner) deferredCall(call *ast.CallExpr, held heldSet) {
	if name := isMutexMethod(staticCallee(sc.info, call)); name == "Unlock" || name == "RUnlock" {
		return // held until return — no effect on the sequential scan
	}
	sc.expr(call, held)
}

// goStmt records a go statement and the termination signals visible at
// it: lifeline arguments (context or receivable channel), the spawned
// closure's own receive/select/range signals and WaitGroup tracking, or
// a statically named callee whose termination fact the module engine
// checks.
func (sc *scanner) goStmt(st *ast.GoStmt, held heldSet) {
	site := goSite{pos: st.Pos()}
	call := st.Call
	for _, a := range call.Args {
		if t := sc.typeOf(a); isContextType(t) || isReceivableChan(t) {
			site.lifeline = true
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		prev := sc.spawned
		sc.spawned = &site
		sc.funcLit(lit)
		sc.spawned = prev
	} else {
		site.named = staticCallee(sc.info, call)
		sc.expr(call.Fun, held)
		if site.named != nil {
			// The spawned body runs with no locks held.
			sc.sum.calls = append(sc.sum.calls, callSite{pos: call.Pos(), callee: site.named, held: make(heldSet)})
		}
	}
	for _, a := range call.Args {
		sc.expr(a, held)
	}
	sc.sum.goSites = append(sc.sum.goSites, site)
}

// termSignal notes a receive/select/channel-range: a termination seed
// for the enclosing function, and a liveness signal for a spawned
// closure under analysis.
func (sc *scanner) termSignal() {
	sc.sum.termSeed = true
	if sc.spawned != nil {
		sc.spawned.chanSig = true
	}
}

// applyLockOp mutates held when e is a direct mutex operation, and
// records acquisitions (with the locks already held — the raw material
// of the lock-order graph).
func (sc *scanner) applyLockOp(e ast.Expr, held heldSet) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	name := isMutexMethod(staticCallee(sc.info, call))
	if name == "" {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := resolveLockExpr(sc.info, sel.X)
	if !ok {
		return
	}
	switch name {
	case "Lock":
		sc.sum.acqs = append(sc.sum.acqs, lockAcq{id: id, pos: call.Pos(), held: held.clone()})
		held[id] = writeHeld
	case "RLock":
		sc.sum.acqs = append(sc.sum.acqs, lockAcq{id: id, pos: call.Pos(), held: held.clone()})
		if held[id] != writeHeld {
			held[id] = readHeld
		}
	case "Unlock", "RUnlock":
		delete(held, id)
	}
}

// resolveLockExpr resolves the receiver of a mutex method call to a
// lockID: a field selector (s.mu — declaring struct plus field, with
// the base object when the chain is simple) or a plain mutex variable.
func resolveLockExpr(info *types.Info, e ast.Expr) (lockID, bool) {
	e = ast.Unparen(e)
	if star, ok := e.(*ast.StarExpr); ok {
		e = ast.Unparen(star.X)
	}
	switch e := e.(type) {
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok {
			return lockID{root: v}, true
		}
	case *ast.SelectorExpr:
		sel := info.Selections[e]
		if sel == nil || sel.Kind() != types.FieldVal {
			return lockID{}, false
		}
		owner := namedOwner(sel.Recv())
		if owner == "" {
			return lockID{}, false
		}
		id := lockID{owner: owner, field: sel.Obj().Name()}
		if base, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			if v, ok := info.Uses[base].(*types.Var); ok {
				id.root = v
			}
		}
		return id, true
	}
	return lockID{}, false
}

// namedOwner renders the named struct type owning a field selection as
// "pkgpath.Type".
func namedOwner(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// isMutexMethod reports the method name when fn is
// (*sync.Mutex/RWMutex).Lock/Unlock/RLock/RUnlock, else "".
func isMutexMethod(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return ""
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return ""
	}
	recv := recvNamed(fn)
	if recv == "Mutex" || recv == "RWMutex" {
		return fn.Name()
	}
	return ""
}

// isWaitGroupMethod reports whether fn is (*sync.WaitGroup).<name>.
func isWaitGroupMethod(fn *types.Func, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" &&
		fn.Name() == name && recvNamed(fn) == "WaitGroup"
}

// recvNamed is the name of fn's receiver type (pointer dereferenced),
// or "".
func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// receiverObject resolves the receiver expression of a method call
// (x.M() or s.f.M()) to the object of x / the field f.
func receiverObject(info *types.Info, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		return info.Uses[x]
	case *ast.SelectorExpr:
		if s := info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
			return s.Obj()
		}
	}
	return nil
}

func (sc *scanner) guardOf(e *ast.SelectorExpr) (guardSpec, bool) {
	sel := sc.info.Selections[e]
	if sel == nil || sel.Kind() != types.FieldVal {
		return guardSpec{}, false
	}
	fv, ok := sel.Obj().(*types.Var)
	if !ok {
		return guardSpec{}, false
	}
	spec, ok := sc.guards[fv]
	return spec, ok
}

func (sc *scanner) typeOf(e ast.Expr) types.Type {
	if tv, ok := sc.info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isReceivableChan reports whether t is a channel the holder can
// receive from (a termination signal; a send-only channel is not one).
func isReceivableChan(t types.Type) bool {
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	return ok && ch.Dir() != types.SendOnly
}
