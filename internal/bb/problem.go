// Package bb implements Algorithm BBU of Wu, Chao and Tang — the sequential
// branch-and-bound construction of Minimum Ultrametric Trees from distance
// matrices — exactly as the paper builds on it: max–min species relabeling,
// a UPGMM feasible solution as the initial upper bound, the branch rule
// that inserts the next species into every edge (and above the root) of the
// partial topology, the lower bound
//
//	LB(v) = ω(T_v) + ½ · Σ_{i>k} min_{j<i} M[i,j],
//
// and the optional 3-3 relationship constraint applied when the third
// species is inserted.
//
// The package also exposes the search step (Step, over Problem and PNode)
// so the parallel engine (internal/pbb), the distributed farm
// (internal/dist) and the cluster simulator (internal/cluster) run the
// identical search with their own pool disciplines.
package bb

import (
	"fmt"
	"math"

	"evotree/internal/matrix"
	"evotree/internal/tree"
	"evotree/internal/upgma"
)

// MaxSpecies bounds the number of species the branch-and-bound accepts.
// Leaf sets are stored as single-word bitmasks; 64 is far beyond the size
// any exact MUT search can finish anyway (the paper's record is 38).
const MaxSpecies = 64

// Problem is an immutable MUT search instance: the (already relabeled)
// distance matrix plus the precomputed lower-bound tail sums.
type Problem struct {
	n int
	// d holds the permuted distances row-major with stride n, so the hot
	// maxDistSweep scan walks one contiguous row instead of chasing a
	// per-row pointer.
	d    []float64
	perm []int // perm[new] = old species index
	// tail[k] = ½ Σ_{i=k..n-1} min_{j<i} d[i][j]: the minimum extra weight
	// any completion of a k-leaf partial topology must add.
	tail  []float64
	names []string // original species names, indexed by old species id

	// followHalf[k*n+t] = ½ · min_{t' ∈ [k,t)} d[t][t'] (+Inf when the
	// range is empty): the cheapest way species t can join a completion of
	// a k-leaf partial topology next to an earlier-but-still-unplaced
	// species instead of next to the placed tree. The propagation bound's
	// per-species increment is capped by it (see propagate.go).
	followHalf []float64
}

// NewProblem builds a search instance from m. When useMaxMin is true the
// species are relabeled by the max–min permutation first (Step 1 of BBU);
// otherwise the input order is kept. The matrix must be metric-checkable
// (Check) and have 2..MaxSpecies species.
func NewProblem(m *matrix.Matrix, useMaxMin bool) (*Problem, error) {
	n := m.Len()
	if n < 2 {
		return nil, fmt.Errorf("bb: need at least 2 species, got %d", n)
	}
	if n > MaxSpecies {
		return nil, fmt.Errorf("bb: %d species exceeds the supported maximum %d", n, MaxSpecies)
	}
	if err := m.Check(); err != nil {
		return nil, err
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	if useMaxMin {
		perm = m.MaxMinPermutation()
	}
	// Read m through perm straight into the row-major table: no relabeled
	// copy of m is built.
	d := make([]float64, n*n)
	for i, pi := range perm {
		row, di := m.Row(pi), d[i*n:(i+1)*n]
		for j, pj := range perm {
			di[j] = row[pj]
		}
	}
	p := &Problem{n: n, d: d, perm: perm, names: m.Names()}
	p.tail = make([]float64, n+1)
	for i := n - 1; i >= 2; i-- {
		minD := math.Inf(1)
		for j := 0; j < i; j++ {
			if d[i*n+j] < minD {
				minD = d[i*n+j]
			}
		}
		p.tail[i] = p.tail[i+1] + minD/2
	}
	p.tail[1] = p.tail[2]
	p.tail[0] = p.tail[2]

	// Follower table for the propagation bound: one backward sweep per
	// species t fills ½·min_{t' ∈ [k,t)} d(t,t') for every k ≤ t.
	p.followHalf = make([]float64, n*n)
	for t := 0; t < n; t++ {
		f := math.Inf(1)
		for k := t; k >= 0; k-- {
			p.followHalf[k*n+t] = f
			if k > 0 {
				if h := d[t*n+k-1] / 2; h < f {
					f = h
				}
			}
		}
	}
	return p, nil
}

// N returns the number of species.
func (p *Problem) N() int { return p.n }

// dist returns the distance between permuted species i and j: the
// row-major accessor the kernel inlines.
func (p *Problem) dist(i, j int) float64 { return p.d[i*p.n+j] }

// InitialUpperBound runs UPGMM on the (permuted) matrix and returns the
// feasible tree translated back to original species labels along with its
// cost (Step 3 of BBU).
func (p *Problem) InitialUpperBound() (*tree.Tree, float64) {
	t, cost := upgma.UPGMM(permView{p})
	t = t.RelabelSpecies(p.perm)
	t.SetNames(p.names)
	return t, cost
}

// permView adapts the problem's permuted distances to upgma.Matrix.
type permView struct{ p *Problem }

func (v permView) Len() int            { return v.p.n }
func (v permView) At(i, j int) float64 { return v.p.dist(i, j) }
