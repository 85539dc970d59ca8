package analyzers

import (
	"go/token"
	"go/types"
	"strings"
)

// witness is one function's evidence for one fact of any tier: the site
// inside the function that causes it, and the next function toward the
// root (nil at the leaf, where what names the root: "time.Now", "write
// of serve.job.state", "acquires serve.Service.mu", ...). A witness is
// assigned exactly once, when the fact is first acquired, from a callee
// whose own chain already terminates — so chains are finite even inside
// call-graph cycles.
type witness struct {
	pos  token.Pos
	what string      // leaf only
	via  *types.Func // next hop toward the root; nil at the leaf
}

// maxChainLen bounds rendered chains; witness chains are acyclic by
// construction, this is a belt against pathological depth.
const maxChainLen = 16

// witnessChain renders the witness path from fn down to the root after
// the given prefix steps; of looks up one function's witness for the
// fact being rendered (nil: none).
func witnessChain(fset *token.FileSet, prefix []ChainStep, fn *types.Func, of func(*types.Func) *witness) []ChainStep {
	steps := prefix
	for cur := fn; cur != nil && len(steps) < maxChainLen; {
		w := of(cur)
		if w == nil {
			break
		}
		what := w.what
		if w.via != nil {
			what = "calls " + w.via.FullName()
		}
		steps = append(steps, ChainStep{Func: cur.FullName(), Pos: fset.Position(w.pos), What: what})
		cur = w.via
	}
	return steps
}

// witnessSummary is the compact one-line form embedded in messages,
// after the given prefix: "helper.Elapsed → helper.stamp → time.Now".
func witnessSummary(prefix []string, fn *types.Func, of func(*types.Func) *witness) string {
	parts := append(prefix, fn.FullName())
	for cur := fn; len(parts) < maxChainLen; {
		w := of(cur)
		if w == nil {
			break
		}
		if w.via == nil {
			parts = append(parts, w.what)
			break
		}
		parts = append(parts, w.via.FullName())
		cur = w.via
	}
	return strings.Join(parts, " → ")
}
