package analyzers

import "go/ast"

// CtxPass flags context.Background() and context.TODO() in library
// packages. Since the batch-run API (DESIGN.md §8) every entry point
// accepts a context; minting a fresh root deep in library code
// disconnects that call tree from cancellation and deadlines. The
// deliberate exception is the context-free compatibility shims, which
// carry a //bce:ctxshim directive.
var CtxPass = &Analyzer{
	Name: "ctxpass",
	Doc: "forbid context.Background()/context.TODO() in library code; accept " +
		"and thread the caller's context (//bce:ctxshim for compatibility shims)",
	Run: runCtxPass,
}

func runCtxPass(pass *Pass) error {
	pass.inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticCallee(pass.TypesInfo, call)
		if !isPackageLevel(fn, "context") || (fn.Name() != "Background" && fn.Name() != "TODO") {
			return true
		}
		if pass.Allowed("ctxshim", call.Pos()) {
			return true
		}
		pass.Reportf(call.Pos(),
			"context.%s() severs this call tree from the caller's cancellation; accept a ctx parameter, or mark a compatibility shim with //bce:ctxshim",
			fn.Name())
		return true
	})
	return nil
}
