package bb

// This file implements the ultrametric propagation bound: an
// exactness-preserving strengthening of the paper's tail lower bound
// obtained by propagating the three-point ultrametric condition of the
// partial tree onto the species that are still unplaced (the attack Moore
// & Prosser describe for ultrametric CSPs, specialized to the MUT branch
// rule).
//
// The tail bound charges every unplaced species t its matrix floor
// δ_t = ½·min_{j<t} d(t,j), ignoring the partial topology entirely. But a
// completion has to put t somewhere, and the three-point condition prices
// each choice against the CURRENT tree: if t lands beside the clade of
// node x, the node that joins them must reach
//
//	NN_t(x) = max(h(x), ½·max_{j under x} d(t,j)),
//
// and every ancestor w of x must rise to at least ½·max_{j under w} d(t,j)
// — an extra A_t(w) = max(0, ½·md_t(w) − h(w)) each, accumulated top-down
// as S_t(x). The only escape from the placed tree is attaching beside an
// earlier-but-also-unplaced species t', which still costs the follower
// floor ½·min_{t'∈[K,t)} d(t,t'). Minimizing over every escape gives the
// guaranteed spend of species t:
//
//	spend_t = min( min_x NN_t(x) + S_t(x),  followHalf[K][t] )
//
// and spend_t − δ_t ≥ 0 is the amount the tail bound undercharges t.
//
// Soundness of charging ONE species this way (see PropagatedLB): in any
// completion T, the cost decomposes over disjoint node families — the
// counterparts of v's nodes (the LCA in T of each v-clade) plus the one
// internal node u_t created per inserted species t. The standard tail
// proof charges δ_t to u_t and h(x) to each counterpart. For a single
// chosen species t*, u_{t*} is worth NN_{t*}(x) instead of δ_{t*} and the
// counterparts of x's ancestors are worth their A_{t*} raises on top of
// their h — or, if t* attaches among unplaced species only, u_{t*} is
// worth the follower floor. No summand is claimed twice, so
//
//	ω(T) ≥ Cost(v) + tail[K] + (spend_{t*} − δ_{t*})
//
// for every t*, hence for the maximizing one. Raises of DIFFERENT species
// land on the SAME ancestor counterparts, so the increments must never be
// summed across species — the max is the whole headroom.

// PropagatedLB returns the strongest lower bound the propagation layer
// proves for v: v.LB plus the best single-species undercharge (zero for a
// complete topology). The bound is exactness-preserving — every
// completion of v costs at least PropagatedLB(v) — so engines may prune
// against it exactly like v.LB. spend_t(x) is the pricing pass's spend
// for species t (see price), so each species costs one pass over v.
// Scratch comes from np (nil allocates); the pooled steady state
// allocates nothing. Cost is O((n−K)·K) worst case, with a per-species
// skip that exits in O(1) whenever a species' follower floor caps its
// possible contribution below the running best. The search step asks
// only whether this bound crosses its incumbent, through
// propagatedPrunes.
func (p *Problem) PropagatedLB(v *PNode, np *NodePool) float64 {
	k := v.K
	if k >= p.n {
		return v.LB
	}
	nn := int32(2*k - 1)
	md, r, stk := np.scratch(int(nn))
	follow := p.followHalf[k*p.n:]
	extra := 0.0
	for t := k; t < p.n; t++ {
		delta := p.tail[t] - p.tail[t+1]
		minSpend := follow[t]
		if minSpend-delta <= extra {
			// Even the best topology-aware spend is capped by the follower
			// floor; this species cannot beat the current increment.
			continue
		}
		p.price(v, t, md, r, stk)
		for x := int32(0); x < nn; x++ {
			if sp := spend(v, x, md, r); sp < minSpend {
				minSpend = sp
			}
		}
		if e := minSpend - delta; e > extra {
			extra = e
		}
	}
	return v.LB + extra
}

// propagatedPrunes returns exactly Prunes(p.PropagatedLB(v, np), ub,
// collectAll) without computing the max. Rounding is monotone, so
// v.LB + max_t e_t crosses ub exactly when v.LB crosses it or some single
// v.LB + e_t does, and e_t = min(follower, min_x spend_t(x)) − δ_t crosses
// exactly when the follower term and every position's term cross. So the
// test skips species whose follower term stays below ub, stops a species
// at its first position that stays below, and returns at the first
// species whose every term crosses.
func (p *Problem) propagatedPrunes(v *PNode, ub float64, collectAll bool, np *NodePool) bool {
	if Prunes(v.LB, ub, collectAll) {
		return true
	}
	k := v.K
	if k >= p.n {
		return false
	}
	nn := int32(2*k - 1)
	md, r, stk := np.scratch(int(nn))
	follow := p.followHalf[k*p.n:]
	for t := k; t < p.n; t++ {
		delta := p.tail[t] - p.tail[t+1]
		if !Prunes(v.LB+(follow[t]-delta), ub, collectAll) {
			continue
		}
		p.price(v, t, md, r, stk)
		crosses := true
		for x := int32(0); x < nn && crosses; x++ {
			crosses = Prunes(v.LB+(spend(v, x, md, r)-delta), ub, collectAll)
		}
		if crosses {
			return true
		}
	}
	return false
}
