// Package graph provides the complete weighted graph view of a distance
// matrix and its minimum spanning tree, grown by Prim's algorithm in
// joining order or listed in Kruskal's acceptance order — the machinery
// the compact-set algorithm of the paper is built on.
package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Edge is a weighted undirected edge between vertices U < V.
type Edge struct {
	U, V   int
	Weight float64
}

// Weights is the read-only, symmetric distance view a complete graph is
// induced from: Row(i)[j] is the weight of edge {i, j}. Callers only read
// a row, never write it. *matrix.Matrix satisfies it.
type Weights interface {
	Len() int
	Row(i int) []float64
}

// Compare is the strict total order on edges: ascending by weight, ties
// broken by (U, V). It returns −1, 0 or +1, as cmp.Compare does.
func (a Edge) Compare(b Edge) int {
	switch {
	case a.Weight < b.Weight:
		return -1
	case a.Weight > b.Weight:
		return 1
	}
	return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
}

// SortEdges orders edges ascending by weight, breaking ties by endpoints.
func SortEdges(edges []Edge) {
	slices.SortFunc(edges, Edge.Compare)
}

// MST computes the minimum spanning tree of the complete graph induced by
// w and returns its edges in the ascending order in which Kruskal's
// algorithm accepts them — exactly the order Step 2 of the paper's
// compact-set algorithm requires. An error is returned for n < 1.
//
// Edges are compared by the strict total order of SortEdges, under which
// the MST is unique, so Prim finds the very tree Kruskal would and sorting
// its n−1 edges gives Kruskal's order. That is O(n²) time and O(n) extra
// memory, where Kruskal over all pairs needs O(n² log n) time and an
// n(n−1)/2 edge list.
func MST(w Weights) ([]Edge, error) {
	n := w.Len()
	if n < 1 {
		return nil, fmt.Errorf("graph: MST of empty vertex set")
	}
	out := make([]Edge, 0, n-1)
	Prim(w, func(v, from int, weight float64) {
		out = append(out, Edge{U: min(v, from), V: max(v, from), Weight: weight})
	})
	SortEdges(out)
	return out, nil
}

// Prim grows the minimum spanning tree of the complete graph induced by w
// from vertex 0, a dense Prim under the strict order of SortEdges, and
// calls step once for each vertex v that joins the tree, in joining order:
// v joins along the least edge leaving the tree, {from, v} of the given
// weight, from being already in the tree. It takes O(n²) time and O(n)
// extra memory; for n < 2 it calls step never.
func Prim(w Weights, step func(v, from int, weight float64)) {
	n := w.Len()
	if n < 2 {
		return
	}
	// rest lists the vertices not yet in the tree. The least edge joining
	// rest[k] to the tree has weight restW[k] and tree endpoint
	// restFrom[k]; all the candidates for it touch rest[k], so the strict
	// order ranks two of equal weight by their tree endpoint alone, and a
	// tie keeps the smaller one.
	rest := make([]int, n-1)
	restW := make([]float64, n-1)
	restFrom := make([]int, n-1) // all 0: vertex 0 starts the tree
	for k := range rest {
		rest[k], restW[k] = k+1, math.Inf(1)
	}
	for t := 0; len(rest) > 0; {
		// One pass: t has just joined, so its row may offer cheaper edges,
		// and the least edge leaving the tree, under the strict order, is
		// picked as the keys settle. The keys, cut to rest's length, need
		// no bounds checks.
		row := w.Row(t)
		ws, from := restW[:len(rest)], restFrom[:len(rest)]
		kn, e := 0, Edge{U: n, V: n, Weight: math.Inf(1)}
		for k, v := range rest {
			if d := row[v]; d < ws[k] || d == ws[k] && t < from[k] {
				ws[k], from[k] = d, t
			}
			if wk := ws[k]; wk <= e.Weight {
				u, x := min(from[k], v), max(from[k], v)
				if wk < e.Weight || u < e.U || u == e.U && x < e.V {
					kn, e = k, Edge{U: u, V: x, Weight: wk}
				}
			}
		}
		t = rest[kn]
		step(t, from[kn], e.Weight)
		// The last vertex takes the joined one's slot.
		last := len(rest) - 1
		rest[kn], ws[kn], from[kn] = rest[last], ws[last], from[last]
		rest = rest[:last]
	}
}
