package analyzers

import (
	"go/ast"
	"go/types"
)

// SeededRand flags calls to the global math/rand and math/rand/v2
// top-level functions, whose shared process-wide state breaks seed
// threading: two emulations sharing the global stream perturb each
// other, and v2's globals cannot be seeded at all. Constructing an
// explicitly seeded generator (rand.New, rand.NewSource, ...) and
// calling its methods is allowed — that is what internal/stats.RNG
// wraps — so every draw traces back to the scenario seed.
var SeededRand = &Analyzer{
	Name: "seededrand",
	Doc: "forbid global math/rand functions; all randomness must flow through " +
		"explicitly seeded generators (internal/stats.RNG)",
	Run: runSeededRand,
}

// randConstructors are the package-level functions that build
// explicitly seeded generators rather than drawing from global state.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func runSeededRand(pass *Pass) error {
	pass.inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := globalRandCall(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		pass.Reportf(call.Pos(),
			"global %s.%s draws from unseeded process-wide state; thread an internal/stats.RNG (or an explicitly seeded *rand.Rand) instead",
			fn.Pkg().Path(), fn.Name())
		return true
	})
	return nil
}

// globalRandCall returns the global math/rand or math/rand/v2 function
// a call draws from, however it is named, or nil for the constructors
// of seeded generators and everything else. The direct pass and the
// fact engine's seed share it.
func globalRandCall(info *types.Info, call *ast.CallExpr) *types.Func {
	fn := staticCallee(info, call)
	if fn == nil || randConstructors[fn.Name()] {
		return nil
	}
	if !isPackageLevel(fn, "math/rand") && !isPackageLevel(fn, "math/rand/v2") {
		return nil
	}
	return fn
}
