package bb

import (
	"math"
	"math/rand"
	"testing"

	"evotree/internal/matrix"
)

// minCompletion exhaustively completes the partial topology v and returns
// the cheapest complete cost — the quantity any sound lower bound for v
// must stay at or below. Exponential; test sizes only.
func minCompletion(p *Problem, v *PNode) float64 {
	if v.Complete(p) {
		return v.Cost
	}
	best := math.Inf(1)
	for pos := 0; pos < v.Positions(); pos++ {
		// v is incomplete and pos in range, so Child cannot fail.
		c, _ := p.Child(v, pos, nil)
		if c := minCompletion(p, c); c < best {
			best = c
		}
	}
	return best
}

// TestPropagatedLBSoundness checks the propagation bound against brute
// force on random matrices of every harness family: for partial nodes at
// every depth, v.LB ≤ PropagatedLB(v) ≤ min completion cost. The lower
// inequality pins that propagation only strengthens the tail bound; the
// upper one is the exactness-preservation proof obligation.
func TestPropagatedLBSoundness(t *testing.T) {
	gens := map[string]func(rng *rand.Rand, n int) *matrix.Matrix{
		"uniform": matrix.Random0100,
		"metric": func(rng *rand.Rand, n int) *matrix.Matrix {
			return matrix.RandomMetric(rng, n, 50, 100)
		},
		"perturbed": func(rng *rand.Rand, n int) *matrix.Matrix {
			return matrix.PerturbedUltrametric(rng, n, 100, 0.1)
		},
		"ultrametric": func(rng *rand.Rand, n int) *matrix.Matrix {
			return matrix.RandomUltrametric(rng, n, 100)
		},
	}
	const n, tol = 7, 1e-9
	for kind, gen := range gens {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			p, err := NewProblem(gen(rng, n), true)
			if err != nil {
				t.Fatal(err)
			}
			np := p.NewPool()
			// Random descent: check every node along one root-to-leaf path
			// of the BBT, plus every sibling generated on the way.
			v := p.Root()
			for !v.Complete(p) {
				children, _ := p.Expand(v, Constraints{}, math.Inf(1), true, np)
				for _, ch := range children {
					plb := p.PropagatedLB(ch, np)
					if plb < ch.LB-tol {
						t.Fatalf("%s seed=%d K=%d: PropagatedLB %g below plain LB %g",
							kind, seed, ch.K, plb, ch.LB)
					}
					if min := minCompletion(p, ch); plb > min+tol {
						t.Fatalf("%s seed=%d K=%d: PropagatedLB %g exceeds cheapest completion %g",
							kind, seed, ch.K, plb, min)
					}
				}
				v = children[rng.Intn(len(children))]
			}
		}
	}
}

// TestPropagatedLBTightensOnPerturbed checks the bound actually bites
// where it is designed to: on near-ultrametric matrices some node of the
// search must get a strictly larger bound than the plain tail gives it
// (otherwise the layer is dead code by construction).
func TestPropagatedLBTightensOnPerturbed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p, err := NewProblem(matrix.PerturbedUltrametric(rng, 12, 100, 0.1), true)
	if err != nil {
		t.Fatal(err)
	}
	np := p.NewPool()
	improved := false
	var walk func(v *PNode, depth int)
	walk = func(v *PNode, depth int) {
		if improved || v.Complete(p) || depth > 6 {
			return
		}
		if p.PropagatedLB(v, np) > v.LB {
			improved = true
			return
		}
		children, _ := p.Expand(v, Constraints{}, math.Inf(1), true, nil)
		for _, ch := range children {
			walk(ch, depth+1)
		}
	}
	walk(p.Root(), 0)
	if !improved {
		t.Fatal("propagation bound never exceeded the plain tail bound on a perturbed-ultrametric instance")
	}
}

// TestStepPropagationMatchesPropagatedLB pins the step's yes/no
// propagation test to the value form: at every node popped in DFS
// searches over four families, propagatedPrunes must answer exactly
// Prunes(PropagatedLB(v), ub, collectAll) for ub at the incumbent, at the
// bound itself, one ulp either side of it, and at +Inf, under both
// collectAll settings.
func TestStepPropagationMatchesPropagatedLB(t *testing.T) {
	families := []struct {
		name string
		gen  func(rng *rand.Rand) *matrix.Matrix
	}{
		{"uniform", func(rng *rand.Rand) *matrix.Matrix { return matrix.Random0100(rng, 10) }},
		{"metric", func(rng *rand.Rand) *matrix.Matrix { return matrix.RandomMetric(rng, 10, 50, 100) }},
		{"perturbed", func(rng *rand.Rand) *matrix.Matrix {
			return matrix.PerturbedUltrametric(rng, 11, 100, 0.1)
		}},
		{"twins", func(rng *rand.Rand) *matrix.Matrix { return twinMatrix(rng, 7, 3) }},
	}
	answers := map[bool]int{}
	for _, f := range families {
		for seed := int64(1); seed <= 4; seed++ {
			p, err := NewProblem(f.gen(rand.New(rand.NewSource(seed))), true)
			if err != nil {
				t.Fatal(err)
			}
			np := p.NewPool()
			st := &Step{P: p, Opt: StrongOptions(), Pool: np, Stats: &Stats{}}
			_, ub := p.InitialUpperBound()
			stack := []*PNode{p.Root()}
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				plb := p.PropagatedLB(v, np)
				for _, u := range []float64{ub, plb, math.Nextafter(plb, math.Inf(-1)),
					math.Nextafter(plb, math.Inf(1)), math.Inf(1)} {
					for _, collectAll := range []bool{false, true} {
						want := Prunes(plb, u, collectAll)
						if got := p.propagatedPrunes(v, u, collectAll, np); got != want {
							t.Fatalf("%s seed=%d K=%d ub=%v collectAll=%v: propagatedPrunes = %v, Prunes(PropagatedLB = %v) = %v",
								f.name, seed, v.K, u, collectAll, got, plb, want)
						}
						answers[want]++
					}
				}
				children, _ := st.Run(v, ub)
				for _, ch := range children {
					if !ch.Complete(p) {
						stack = append(stack, ch)
						continue
					}
					if ch.Cost < ub {
						ub = ch.Cost
					}
					np.Put(ch)
				}
			}
		}
	}
	if answers[true] == 0 || answers[false] == 0 {
		t.Fatalf("degenerate check: %d prune and %d keep answers", answers[true], answers[false])
	}
}

// TestPropagatedLBZeroAlloc pins the no-new-allocations contract of the
// propagation layer: with a warm pool, re-bounding a node allocates
// nothing, the step's yes/no test allocates nothing on either answer, and
// neither does a Step.Run under Propagate that prunes the node by it.
func TestPropagatedLBZeroAlloc(t *testing.T) {
	p, err := NewProblem(kernelMatrix(12), true)
	if err != nil {
		t.Fatal(err)
	}
	np := p.NewPool()
	v := p.Root()
	for v.K < 6 {
		children := expandAll(p, v, np)
		next := children[0]
		for _, ch := range children[1:] {
			np.Put(ch)
		}
		v = next
	}
	p.PropagatedLB(v, np) // warm the scratch slices
	allocs := testing.AllocsPerRun(200, func() {
		p.PropagatedLB(v, np)
	})
	if allocs != 0 {
		t.Fatalf("PropagatedLB allocates %.0f objects on a warm pool, want 0", allocs)
	}

	plb := p.PropagatedLB(v, np)
	if plb <= v.LB {
		t.Fatalf("guard node must tighten under propagation: PropagatedLB %v, LB %v", plb, v.LB)
	}
	above := math.Nextafter(plb, math.Inf(1))
	st := &Step{P: p, Opt: StrongOptions(), Pool: np, Stats: &Stats{}}
	allocs = testing.AllocsPerRun(200, func() {
		if p.propagatedPrunes(v, above, false, np) {
			t.Fatal("propagation test pruned against a bound above PropagatedLB")
		}
		w := np.get(p.n)
		w.copyFrom(v)
		if children, _ := st.Run(w, plb); children != nil {
			t.Fatal("Step.Run kept a node its propagation bound reaches")
		}
	})
	if allocs != 0 {
		t.Fatalf("Step.Run under Propagate allocates %.0f objects on a warm pool, want 0", allocs)
	}
	if st.Stats.Pruned.Ultrametric == 0 {
		t.Fatal("Step.Run never pruned by propagation")
	}
}

// twinMatrix builds an ultrametric-ish matrix with planted exact twins:
// base species at mutual distance drawn from an ultrametric, plus dup
// copies of species 0 at tiny mutual distance — an automorphism-rich,
// heavily tied instance.
func twinMatrix(rng *rand.Rand, base, dups int) *matrix.Matrix {
	um := matrix.RandomUltrametric(rng, base, 100)
	n := base + dups
	m := matrix.New(n)
	for i := 0; i < base; i++ {
		for j := i + 1; j < base; j++ {
			m.Set(i, j, um.At(i, j))
		}
	}
	for k := 0; k < dups; k++ {
		c := base + k
		// Copy species 0's row; copies sit at distance 1 from species 0
		// and from each other (smaller than any base distance).
		for j := 1; j < base; j++ {
			m.Set(c, j, um.At(0, j))
		}
		m.Set(c, 0, 1)
		for l := 0; l < k; l++ {
			m.Set(c, base+l, 1)
		}
	}
	return m
}

// TestCollectAllDisablesDominance pins CollectAll under the strong rule
// set: the propagation bound keeps LB == UB nodes alive like the plain
// bound, so a collect-all solve under StrongOptions finds the full optimum
// set, and the Dominance bucket, which no rule feeds, stays zero.
func TestCollectAllDisablesDominance(t *testing.T) {
	m := matrix.New(6)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			m.Set(i, j, 10)
		}
	}
	plain := DefaultOptions()
	plain.CollectAll = true
	ref, err := Solve(m, plain)
	if err != nil {
		t.Fatal(err)
	}
	ruled := StrongOptions()
	ruled.CollectAll = true
	got, err := Solve(m, ruled)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Trees) != len(ref.Trees) {
		t.Fatalf("CollectAll under StrongOptions found %d optima, want %d", len(got.Trees), len(ref.Trees))
	}
	if got.Stats.Pruned.Dominance != 0 {
		t.Fatalf("CollectAll solve recorded %d dominance prunes, want 0", got.Stats.Pruned.Dominance)
	}
}
