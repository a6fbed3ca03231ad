package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// OneStep keeps the branch-and-bound step in one place. Every engine —
// the sequential and best-first drivers, the parallel master and
// workers, the farm's slicer and workers, the cluster model — runs the
// same per-node step (prune at pop, the propagation bound, the budget
// draw, Expand) through bb.Step in internal/bb/step.go. When each engine
// wrote that loop out by hand the copies drifted: the farm never applied
// the propagation bound and the prune predicate was inlined six times.
// Any other reference to (*bb.Problem).Expand, (*bb.Problem).PropagatedLB
// or the step's yes/no propagation test (*bb.Problem).propagatedPrunes is
// reported, so a new engine cannot grow a private copy of the step.
var OneStep = &Analyzer{
	Name: "onestep",
	Doc:  "(*bb.Problem).Expand, PropagatedLB and propagatedPrunes are called only by bb.Step in internal/bb/step.go",
	Run:  runOneStep,
}

const bbPkgPath = "evotree/internal/bb"

// stepKernel names the Problem methods only the step may call.
var stepKernel = map[string]bool{"Expand": true, "PropagatedLB": true, "propagatedPrunes": true}

func runOneStep(pass *Pass) error {
	inBB := pkgPath(pass.Pkg) == bbPkgPath
	for _, f := range pass.Files {
		if inBB && filepath.Base(pass.Fset.Position(f.Pos()).Filename) == "step.go" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || !stepKernel[fn.Name()] {
				return true
			}
			recv := fn.Type().(*types.Signature).Recv()
			if recv == nil {
				return true
			}
			t := recv.Type()
			if ptr, isPtr := t.(*types.Pointer); isPtr {
				t = ptr.Elem()
			}
			if isNamed(t, bbPkgPath, "Problem") {
				pass.Reportf(sel.Sel.Pos(),
					"(*bb.Problem).%s outside bb.Step: run the shared search step (internal/bb/step.go) instead of a copy of it",
					fn.Name())
			}
			return true
		})
	}
	return nil
}
