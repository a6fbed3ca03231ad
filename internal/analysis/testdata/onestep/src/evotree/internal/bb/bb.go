// Package bb is a fixture shadowing the real engine package: the kernel
// methods live here, and only step.go may call them.
package bb

type PNode struct{ LB float64 }

type Problem struct{ n int }

func (p *Problem) Expand(v *PNode, ub float64) []*PNode { return nil }

func (p *Problem) PropagatedLB(v *PNode) float64 { return v.LB }

func (p *Problem) propagatedPrunes(v *PNode, ub float64) bool { return v.LB >= ub }

// Root is not part of the step kernel; calling it anywhere is fine.
func (p *Problem) Root() *PNode { return &PNode{} }

// solveByHand is a second copy of the search loop inside the package
// itself.
func (p *Problem) solveByHand(v *PNode) int {
	if p.PropagatedLB(v) > 1 { // want `\(\*bb\.Problem\)\.PropagatedLB outside bb\.Step`
		return 0
	}
	if p.propagatedPrunes(v, 1) { // want `\(\*bb\.Problem\)\.propagatedPrunes outside bb\.Step`
		return 0
	}
	return len(p.Expand(v, 1)) // want `\(\*bb\.Problem\)\.Expand outside bb\.Step`
}
