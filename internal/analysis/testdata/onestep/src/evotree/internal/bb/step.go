package bb

// Step is the one home of the kernel calls.
type Step struct{ P *Problem }

func (s *Step) Run(v *PNode, ub float64) []*PNode {
	if s.P.propagatedPrunes(v, ub) {
		return nil
	}
	if s.P.PropagatedLB(v) >= ub {
		return nil
	}
	return s.P.Expand(v, ub)
}
