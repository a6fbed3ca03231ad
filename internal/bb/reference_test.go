package bb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"evotree/internal/matrix"
	"evotree/internal/tree"
)

// This file keeps two earlier kernels as references. The bottom-up
// pricing (refChildBound, refInsertHeights) is a per-position walk up the
// ancestors that tracks the running internal-height sum and the new
// height of the on-path child; the pricing pass must reproduce it —
// heights exactly, and costs exactly whenever the sums are exact. The
// sweep-and-stack pass (refMaxDistSweep, refPrice) computed the same
// tables as price with a leaf-to-root sweep and a stack-driven top-down
// pass; price must reproduce its tables and base bit for bit.

// refMaxDistSweep fills md[x] = max_{j under x} d[s][j] for every node x
// of v's partial topology in one leaf-to-root bubbling pass: each placed
// species walks its ancestor path, raising maxima, and stops at the first
// ancestor already at or above its value (some leaf below that ancestor
// carries a larger distance, and that leaf's own walk covers the
// remaining ancestors).
func refMaxDistSweep(p *Problem, v *PNode, s int, md []float64) {
	row := p.d[s*p.n : s*p.n+p.n]
	for i := range md {
		md[i] = -1
	}
	for sp := 0; sp < v.K; sp++ {
		val := row[sp]
		for x := v.leafID[sp]; x != -1; x = v.parent[x] {
			if md[x] >= val {
				break
			}
			md[x] = val
		}
	}
}

// refPrice is the pricing pass as it ran on refMaxDistSweep: md from the
// sweep, then r top-down from the root through an explicit node stack.
// It returns the same base as price.
func refPrice(p *Problem, v *PNode, s int, md, r []float64) float64 {
	refMaxDistSweep(p, v, s, md)
	stk := make([]int32, len(md))
	root := v.root
	r[root] = 0
	stk[0] = root
	for sp := 1; sp > 0; {
		sp--
		x := stk[sp]
		l := v.left[x]
		if l == -1 {
			continue
		}
		a := r[x]
		if half, hx := md[x]/2, v.height[x]; half > hx {
			a += half - hx
		}
		rt := v.right[x]
		r[l], r[rt] = a, a
		stk[sp], stk[sp+1] = l, rt
		sp += 2
	}
	base := v.Cost
	if half, hr := md[root]/2, v.height[root]; half > hr {
		base += half - hr
	}
	return base
}

// pricingFamilies are the matrix families the pricing references are
// checked on; exact marks the integer-valued ones, where every sum of
// heights is exact.
var pricingFamilies = []struct {
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
	for _, f := range pricingFamilies {
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
				refMaxDistSweep(p, v, v.K, md)
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

// TestPricingPassMatchesReference runs price against refPrice for every
// unplaced species of every node built by Expand, Child and WalkPath on
// random descents (n up to 40), with every other Child step inserting
// above the root. The md and r tables and the base must be identical bit
// for bit, and every node's order must list each internal node exactly
// once, after its internal children.
func TestPricingPassMatchesReference(t *testing.T) {
	for _, f := range pricingFamilies {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 4 + rng.Intn(37) // 4..40
			p, err := NewProblem(f.gen(rng, n), true)
			if err != nil {
				t.Fatal(err)
			}
			check := func(how string, v *PNode) {
				t.Helper()
				if err := checkOrder(v); err != nil {
					t.Fatalf("%s seed=%d n=%d %s K=%d: %v", f.name, seed, n, how, v.K, err)
				}
				nn := 2*v.K - 1
				md, r := make([]float64, nn), make([]float64, nn)
				wantMD, wantR := make([]float64, nn), make([]float64, nn)
				for s := v.K; s < p.n; s++ {
					for x := range md {
						md[x], r[x] = math.NaN(), math.NaN() // catch unwritten entries
					}
					base := p.price(v, s, md, r)
					want := refPrice(p, v, s, wantMD, wantR)
					if math.Float64bits(base) != math.Float64bits(want) {
						t.Fatalf("%s seed=%d n=%d %s K=%d s=%d: base %v, reference %v",
							f.name, seed, n, how, v.K, s, base, want)
					}
					for x := 0; x < nn; x++ {
						if math.Float64bits(md[x]) != math.Float64bits(wantMD[x]) ||
							math.Float64bits(r[x]) != math.Float64bits(wantR[x]) {
							t.Fatalf("%s seed=%d n=%d %s K=%d s=%d node %d: md %v r %v, reference md %v r %v",
								f.name, seed, n, how, v.K, s, x, md[x], r[x], wantMD[x], wantR[x])
						}
					}
				}
			}
			np := p.NewPool()

			// Expand: every kept child along a random descent.
			v := p.Root()
			check("root", v)
			for !v.Complete(p) {
				children, _ := p.Expand(v, Constraints{}, math.Inf(1), false, np)
				next := children[rng.Intn(len(children))]
				for _, ch := range children {
					check("Expand", ch)
					if ch != next {
						np.Put(ch)
					}
				}
				np.Put(v)
				v = next
			}
			np.Put(v)

			// Child: a random descent that inserts above the root on every
			// other step.
			v = p.Root()
			var path []int
			for !v.Complete(p) {
				pos := rng.Intn(v.Positions())
				if v.K%2 == 0 {
					pos = v.Positions() - 1 // above the root
				}
				c, err := p.Child(v, pos, np)
				if err != nil {
					t.Fatal(err)
				}
				check("Child", c)
				path = append(path, pos)
				np.Put(v)
				v = c
			}

			// WalkPath: every prefix of the Child descent's path.
			for i := range path {
				w, err := p.WalkPath(path[:i+1], np)
				if err != nil {
					t.Fatal(err)
				}
				check("WalkPath", w)
				np.Put(w)
			}
			np.Put(v)
		}
	}
}

// checkOrder reports whether v.order lists each internal node of v's
// partial topology exactly once, after its internal children.
func checkOrder(v *PNode) error {
	nn := 2*v.K - 1
	at := make([]int, nn)
	for i := range at {
		at[i] = -1
	}
	for i, x := range v.order[:v.K-1] {
		if x < 0 || int(x) >= nn || v.left[x] == -1 {
			return fmt.Errorf("order[%d] = %d is not an internal node", i, x)
		}
		if at[x] != -1 {
			return fmt.Errorf("order lists node %d twice", x)
		}
		at[x] = i
	}
	for x := 0; x < nn; x++ {
		if v.left[x] == -1 {
			continue
		}
		if at[x] == -1 {
			return fmt.Errorf("order misses internal node %d", x)
		}
		for _, c := range []int32{v.left[x], v.right[x]} {
			if v.left[c] != -1 && at[c] > at[x] {
				return fmt.Errorf("node %d listed after its parent %d", c, x)
			}
		}
	}
	return nil
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
