package tree

// Distances is the read-only view of a distance matrix needed by height
// assignment and feasibility checks. *matrix.Matrix satisfies it.
type Distances interface {
	Len() int
	At(i, j int) float64
}

// AssignMinHeights sets every internal node of t to the minimum height at
// which the topology realizes d_T(i,j) ≥ M[i,j]:
//
//	h(v) = max( max over cross pairs (i,j) under v of M[i,j]/2,
//	            h(left), h(right) )
//
// Leaves get height 0. For a fixed topology this assignment has minimum
// weight among all feasible ultrametric realizations (lowering any node
// below this value violates either feasibility or height monotonicity).
// It returns the resulting tree cost ω(T).
func (t *Tree) AssignMinHeights(m Distances) float64 {
	var walk func(id int) []int // returns leaf species under id
	walk = func(id int) []int {
		n := &t.Nodes[id]
		if n.Species >= 0 {
			n.Height = 0
			return []int{n.Species}
		}
		left := walk(n.Left)
		right := walk(n.Right)
		h := 0.0
		for _, i := range left {
			for _, j := range right {
				if d := m.At(i, j); d > 2*h {
					h = d / 2
				}
			}
		}
		if lh := t.Nodes[n.Left].Height; lh > h {
			h = lh
		}
		if rh := t.Nodes[n.Right].Height; rh > h {
			h = rh
		}
		n.Height = h
		return append(left, right...)
	}
	walk(t.Root)
	return t.Cost()
}

// Feasible reports whether d_T(i,j) ≥ M[i,j] − tol holds for every pair of
// species present in the tree. This is the defining constraint of the MUT
// problem (Definition 8).
func (t *Tree) Feasible(m Distances, tol float64) bool {
	leaves := t.Leaves()
	for x := 0; x < len(leaves); x++ {
		for y := x + 1; y < len(leaves); y++ {
			i, j := leaves[x], leaves[y]
			if t.Dist(i, j) < m.At(i, j)-tol {
				return false
			}
		}
	}
	return true
}
