package bb

import (
	"math"
	"math/rand"
	"testing"

	"evotree/internal/matrix"
	"evotree/internal/tree"
)

// This file keeps the bottom-up pricing the kernel used before the
// top-down pricing pass (price/spend): a per-position walk up the
// ancestors that tracks the running internal-height sum and the new
// height of the on-path child. It is the reference the pricing pass must
// reproduce — heights exactly, and costs exactly whenever the sums are
// exact.

// refChildBound is the bottom-up walk: the cost of inserting permuted
// species s at pos into v, whose internal heights sum to sumInt, summed in
// the order the walk visits the ancestors.
func refChildBound(v *PNode, sumInt float64, pos int, md []float64) float64 {
	if pos == 2*v.K-2 {
		h := md[v.root] / 2
		if hr := v.height[v.root]; hr > h {
			h = hr
		}
		return sumInt + h + h
	}
	e := v.posNode(pos)
	h := md[e] / 2
	if v.height[e] > h {
		h = v.height[e]
	}
	sum := sumInt + h
	hc := h
	child := e
	for u := v.parent[e]; u != -1; u = v.parent[u] {
		other := v.left[u]
		if other == child {
			other = v.right[u]
		}
		hu := v.height[u]
		if hc > hu {
			hu = hc
		}
		if hx := md[other] / 2; hx > hu {
			hu = hx
		}
		sum += hu - v.height[u]
		hc = hu
		child = u
	}
	return sum + hc // hc is the new root height
}

// refInsertHeights is the bottom-up height loop: the heights of v's nodes
// after inserting a species at pos (the new leaf and internal node take
// ids 2K−1 and 2K), plus the running internal-height sum updated the same
// way. Each ancestor takes the max of its own height, its on-path child's
// new height and half the new species' distance to its other child.
func refInsertHeights(v *PNode, sumInt float64, pos int, md []float64) ([]float64, float64) {
	nn := 2*v.K - 1
	height := make([]float64, nn+2)
	copy(height, v.height[:nn])
	in := int32(nn + 1)
	e := v.posNode(pos)
	h := md[e] / 2
	if height[e] > h {
		h = height[e]
	}
	height[in] = h
	sumInt += h
	if pos == 2*v.K-2 {
		return height, sumInt
	}
	child, onPath := e, in // e's new parent is in
	for u := v.parent[e]; u != -1; u = v.parent[u] {
		other := v.left[u]
		if other == child {
			other = v.right[u]
		}
		hu := height[u]
		if hc := height[onPath]; hc > hu {
			hu = hc
		}
		if hx := md[other] / 2; hx > hu {
			hu = hx
		}
		sumInt += hu - height[u]
		height[u] = hu
		child, onPath = u, u
	}
	return height, sumInt
}

// TestPricingMatchesReference prices every position of every node along
// random descents (n up to 20) both ways. Heights must be bit-identical;
// costs must be bit-identical on integer-valued matrices, where every
// sum is exact, and agree within 1e-12 relative on float-valued ones,
// where the two summation orders may round differently.
func TestPricingMatchesReference(t *testing.T) {
	families := []struct {
		name  string
		exact bool
		gen   func(rng *rand.Rand, n int) *matrix.Matrix
	}{
		{"uniform", true, matrix.Random0100},
		{"metric", true, func(rng *rand.Rand, n int) *matrix.Matrix {
			return matrix.RandomMetric(rng, n, 50, 100)
		}},
		{"perturbed", false, func(rng *rand.Rand, n int) *matrix.Matrix {
			return matrix.PerturbedUltrametric(rng, n, 100, 0.1)
		}},
		{"ultrametric", false, func(rng *rand.Rand, n int) *matrix.Matrix {
			return matrix.RandomUltrametric(rng, n, 100)
		}},
	}
	for _, f := range families {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 4 + rng.Intn(17) // 4..20
			p, err := NewProblem(f.gen(rng, n), true)
			if err != nil {
				t.Fatal(err)
			}
			np := p.NewPool()
			v := p.Root()
			sumInt := v.height[v.root]
			for !v.Complete(p) {
				md := make([]float64, v.Positions())
				p.maxDistSweep(v, v.K, md)
				next := rng.Intn(v.Positions())
				var nextSum float64
				var nextChild *PNode
				for pos := 0; pos < v.Positions(); pos++ {
					c, err := p.Child(v, pos, np)
					if err != nil {
						t.Fatal(err)
					}
					wantH, wantSum := refInsertHeights(v, sumInt, pos, md)
					for x, h := range wantH {
						if c.height[x] != h {
							t.Fatalf("%s seed=%d n=%d K=%d pos=%d: height[%d] = %v, reference %v",
								f.name, seed, n, v.K, pos, x, c.height[x], h)
						}
					}
					want := refChildBound(v, sumInt, pos, md)
					if ref := wantSum + c.height[c.root]; ref != want {
						t.Fatalf("%s seed=%d K=%d pos=%d: reference walk %v disagrees with reference insert %v",
							f.name, seed, v.K, pos, want, ref)
					}
					if f.exact && c.Cost != want {
						t.Fatalf("%s seed=%d n=%d K=%d pos=%d: cost %v, reference %v (want bit-identical)",
							f.name, seed, n, v.K, pos, c.Cost, want)
					}
					if d := math.Abs(c.Cost - want); d > 1e-12*math.Abs(want) {
						t.Fatalf("%s seed=%d n=%d K=%d pos=%d: cost %v, reference %v (|Δ| %g)",
							f.name, seed, n, v.K, pos, c.Cost, want, d)
					}
					if pos == next {
						nextChild, nextSum = c, wantSum
					} else {
						np.Put(c)
					}
				}
				np.Put(v)
				v, sumInt = nextChild, nextSum
			}
		}
	}
}

// BruteForce enumerates every rooted binary topology over the species of m
// and returns a minimum ultrametric tree with its cost. Exponential; only
// sensible for n ≤ 9. The reference the branch-and-bound is checked against.
func BruteForce(m *matrix.Matrix) (*tree.Tree, float64, error) {
	p, err := NewProblem(m, false)
	if err != nil {
		return nil, 0, err
	}
	best := math.Inf(1)
	var bestNode *PNode
	np := p.NewPool()
	var rec func(v *PNode)
	rec = func(v *PNode) {
		if v.Complete(p) {
			if v.Cost < best {
				best = v.Cost
				bestNode = v
			}
			return
		}
		for pos := 0; pos < v.Positions(); pos++ {
			// v is incomplete and pos in range, so Child cannot fail.
			c, _ := p.Child(v, pos, np)
			rec(c)
		}
	}
	rec(p.Root())
	return bestNode.Tree(p), best, nil
}
