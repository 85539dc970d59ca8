package analyzers

import (
	"go/ast"
	"go/types"
)

// NoWallTime flags reads of the host's wall clock — time.Now,
// time.Since and time.Sleep — which make emulation results depend on
// the machine running them instead of the simulated clock. Legitimate
// host-time measurements (profiling hooks, upload timestamps) carry a
// //bce:wallclock directive.
var NoWallTime = &Analyzer{
	Name: "nowalltime",
	Doc: "forbid wall-clock reads (time.Now/Since/Sleep) in emulation code; " +
		"sim time must come from the simulated clock (//bce:wallclock to allow)",
	Run: runNoWallTime,
}

var wallClockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Sleep": true,
}

func runNoWallTime(pass *Pass) error {
	pass.inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := wallClockCall(pass.TypesInfo, call)
		if fn == nil || pass.Allowed("wallclock", call.Pos()) {
			return true
		}
		pass.Reportf(call.Pos(),
			"wall-clock time.%s leaks host time into the emulation; use the simulated clock, or annotate a deliberate host-time measurement with //bce:wallclock",
			fn.Name())
		return true
	})
	return nil
}

// wallClockCall returns the time function a call reads the wall clock
// through, however it is named (time.Now, or Now under a dot import),
// or nil. The direct pass and the fact engine's seed share it.
func wallClockCall(info *types.Info, call *ast.CallExpr) *types.Func {
	if fn := staticCallee(info, call); isPackageLevel(fn, "time") && wallClockFuncs[fn.Name()] {
		return fn
	}
	return nil
}
