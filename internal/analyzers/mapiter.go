package analyzers

import (
	"go/ast"
	"go/types"
)

// MapIter flags `range` over map values in the core scheduling
// packages. Go randomizes map iteration order per run, so a map range
// that feeds ordered output, floating-point accumulation, or a
// scheduling decision silently breaks bit-identical replay. Iterate a
// sorted key slice instead, or mark a provably order-insensitive loop
// (e.g. a pure min/max or set rebuild) with //bce:unordered.
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc: "forbid ranging over maps in scheduling code; iterate sorted keys, " +
		"or mark order-insensitive loops with //bce:unordered",
	Run: runMapIter,
}

func runMapIter(pass *Pass) error {
	pass.inspect(func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := mapRanged(pass.TypesInfo, rng)
		if t == nil || pass.Allowed("unordered", rng.Pos()) {
			return true
		}
		pass.Reportf(rng.Pos(),
			"range over map %s iterates in randomized order and can diverge replay; iterate a sorted key slice, or mark an order-insensitive loop with //bce:unordered",
			types.TypeString(t, types.RelativeTo(pass.Pkg)))
		return true
	})
	return nil
}

// mapRanged returns the map type a range statement iterates, or nil.
// The direct pass and the fact engine's seed share it.
func mapRanged(info *types.Info, rng *ast.RangeStmt) types.Type {
	tv, ok := info.Types[rng.X]
	if !ok || tv.Type == nil {
		return nil
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return nil
	}
	return tv.Type
}
