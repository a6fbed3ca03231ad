package bb

import "sync/atomic"

// Prunes reports whether a node with lower bound lb cannot improve on the
// incumbent ub — or, when collecting all optima, cannot match it. It is
// the one prune predicate of every engine.
func Prunes(lb, ub float64, collectAll bool) bool {
	if collectAll {
		return lb > ub
	}
	return lb >= ub
}

// NewBudget returns an expansion budget of maxNodes draws, or nil (no
// limit) when maxNodes is not positive, as for Options.MaxNodes.
func NewBudget(maxNodes int64) *atomic.Int64 {
	if maxNodes <= 0 {
		return nil
	}
	b := new(atomic.Int64)
	b.Store(maxNodes)
	return b
}

// Step is the per-node step of the branch-and-bound. As in the paper,
// where master and workers run one DFS-and-prune step over different
// pools, every engine runs this step and supplies only its frontier and
// its incumbent: the step sees the incumbent as the float64 bound the
// caller passes and hands complete topologies back for the caller to
// offer. A Step is not safe for concurrent use; concurrent searchers each
// own one and may share only the Budget.
type Step struct {
	P      *Problem
	Opt    Options       // Constraints, CollectAll, Propagate and (for Split) Ctx
	Pool   *NodePool     // where pruned and expanded nodes are recycled
	Budget *atomic.Int64 // expansions left, shared by a search's steps; nil: no limit
	Stats  *Stats

	one [1]*PNode // backing array for handing a complete v back
}

// Run performs one step on v against the caller's bound ub: prune v as
// an incumbent discard when its LB no longer beats ub, hand v back when it
// is complete, prune it when Opt.Propagate is set and PropagatedLB
// crosses ub, draw one expansion from the budget, then Expand and recycle
// v. Every discard is counted in Stats. The surviving children come back
// by ascending LB and are either all complete, for the caller to offer to
// its incumbent, or all open, for the caller to push. The returned slice
// belongs to the Step and its Pool: it is valid until the next call on
// the same pool, so the caller consumes it before its next step. Run
// returns false only when the budget is exhausted; v is then untouched,
// for the caller to abandon.
func (s *Step) Run(v *PNode, ub float64) ([]*PNode, bool) {
	collectAll := s.Opt.CollectAll
	if Prunes(v.LB, ub, collectAll) {
		s.Stats.CountIncumbentPrune(1)
		s.Pool.Put(v)
		return nil, true
	}
	if v.Complete(s.P) {
		s.one[0] = v
		return s.one[:], true
	}
	// Propagation prunes before the budget draw: a node the bound kills
	// costs no share of the expansion budget.
	if s.Opt.Propagate && s.P.propagatedPrunes(v, ub, collectAll, s.Pool) {
		s.Stats.CountUltrametricPrune(1)
		s.Pool.Put(v)
		return nil, true
	}
	if s.Budget != nil && s.Budget.Add(-1) < 0 {
		return nil, false
	}
	s.Stats.Expanded++
	children, pruned := s.P.Expand(v, s.Opt.Constraints, ub, collectAll, s.Pool)
	s.Stats.CountExpand(len(children), pruned)
	s.Pool.Put(v)
	return children, true
}

// Split is the master phase of the parallel protocol: it runs the step
// breadth-first from the root v, shallowest node first, until at least
// target open nodes exist or none remain, polling Opt.Ctx before each
// step. Complete children are counted and passed to offer, which records
// them in the caller's incumbent and returns the bound to prune against
// next. It returns the open frontier by ascending LB, less the nodes the
// final bound prunes, and false when the budget or the context cut the
// phase short (the frontier then keeps the node left unexpanded).
func (s *Step) Split(v *PNode, target int, ub float64, offer func(*PNode) float64) ([]*PNode, bool) {
	open := []*PNode{v}
	done := true
	for len(open) > 0 && len(open) < target {
		if s.Opt.Ctx != nil && s.Opt.Ctx.Err() != nil {
			done = false
			break
		}
		v := open[0]
		open = open[1:]
		children, ok := s.Run(v, ub)
		if !ok {
			open = append(open, v)
			done = false
			break
		}
		for _, ch := range children {
			switch {
			case Prunes(ch.LB, ub, s.Opt.CollectAll):
				s.Stats.CountIncumbentPrune(1)
				s.Pool.Put(ch)
			case ch.Complete(s.P):
				s.Stats.Completed++
				ub = offer(ch)
				s.Pool.Put(ch)
			default:
				open = append(open, ch)
			}
		}
	}
	sortByLB(open)
	kept := open[:0]
	for _, v := range open {
		if Prunes(v.LB, ub, s.Opt.CollectAll) {
			s.Stats.CountIncumbentPrune(1)
			s.Pool.Put(v)
			continue
		}
		kept = append(kept, v)
	}
	return kept, done
}
