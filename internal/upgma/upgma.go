// Package upgma implements the two agglomerative clustering heuristics used
// by the paper: UPGMA (Unweighted Pair Group Method with Arithmetic mean,
// Sneath & Sokal) and UPGMM (Unweighted Pair Group Method with Maximum),
// the complete-linkage variant Wu, Chao and Tang introduced to seed their
// branch-and-bound with a feasible ultrametric tree.
//
// Both repeatedly merge the closest pair of clusters at height = distance/2.
// They differ in how the merged cluster's distance to the others is
// defined: UPGMA takes the size-weighted average, UPGMM takes the maximum.
// The UPGMM tree realizes d_T(i,j) = max over cross pairs of M ≥ M[i,j],
// so its cost is always a valid upper bound for the MUT problem; the UPGMA
// tree generally is not feasible.
package upgma

import (
	"math"

	"evotree/internal/tree"
)

// Linkage selects the cluster-distance update rule.
type Linkage int

// Supported linkages.
const (
	Average Linkage = iota // UPGMA
	Maximum                // UPGMM
	Minimum                // single linkage; provided for the reduced-matrix experiments
)

// Matrix is the distance view the heuristics read. *matrix.Matrix
// satisfies it.
type Matrix interface {
	Len() int
	At(i, j int) float64
}

// Build clusters the n species of m into an ultrametric tree with the given
// linkage. For Maximum linkage the result is guaranteed feasible
// (d_T ≥ M). It panics if m has no species.
//
// The tree grows in one node array, the n leaves first and then one
// internal node per merge, and the working distances live in one n×n
// slab, so a build makes the same few allocations at every n. A last
// preorder pass lays the nodes out as merging with tree.Join would: the
// root's left subtree in preorder, then its right subtree in preorder,
// then the root. Nodes, Root and so Cost's summation order are fixed by
// that rule.
func Build(m Matrix, link Linkage) *tree.Tree {
	n := m.Len()
	if n == 0 {
		panic("upgma: empty matrix")
	}
	if n == 1 {
		return tree.New(0)
	}

	// dist[i*n+j] is the working distance between the clusters in slots i
	// and j. A merge keeps the lower slot of the pair.
	dist := make([]float64, n*n)
	for i := 0; i < n; i++ {
		row := dist[i*n : (i+1)*n]
		for j := range row {
			row[j] = m.At(i, j)
		}
	}
	nodes := make([]tree.Node, 2*n-1)
	// alive lists the live slots in ascending order; top[i] is the node
	// at the top of slot i's cluster and size[i] its species count.
	slots := make([]int, 3*n)
	alive, top, size := slots[:n], slots[n:2*n], slots[2*n:]
	for i := 0; i < n; i++ {
		nodes[i] = tree.Node{Species: i, Left: tree.NoNode, Right: tree.NoNode, Parent: tree.NoNode}
		alive[i], top[i], size[i] = i, i, 1
	}

	for id := n; len(alive) > 1; id++ {
		// Find the closest pair of live clusters.
		bi, bj := alive[0], alive[1]
		best := math.Inf(1)
		for x, i := range alive {
			row := dist[i*n : (i+1)*n]
			for _, j := range alive[x+1:] {
				if row[j] < best {
					best, bi, bj = row[j], i, j
				}
			}
		}
		a, b := top[bi], top[bj]
		h := best / 2
		// Heights must be monotone: a merge at height below a child's
		// height can occur for Average/Minimum linkage on non-ultrametric
		// data; clamp to keep the tree valid.
		if ah := nodes[a].Height; ah > h {
			h = ah
		}
		if bh := nodes[b].Height; bh > h {
			h = bh
		}
		nodes[id] = tree.Node{Species: -1, Left: a, Right: b, Parent: tree.NoNode, Height: h}
		nodes[a].Parent, nodes[b].Parent = id, id
		// Update distances from the merged cluster (stored at slot bi) to
		// every other live cluster.
		sa, sb := size[bi], size[bj]
		for _, k := range alive {
			if k == bi || k == bj {
				continue
			}
			di, dj := dist[bi*n+k], dist[bj*n+k]
			var d float64
			switch link {
			case Average:
				d = (di*float64(sa) + dj*float64(sb)) / float64(sa+sb)
			case Maximum:
				d = math.Max(di, dj)
			case Minimum:
				d = math.Min(di, dj)
			}
			dist[bi*n+k], dist[k*n+bi] = d, d
		}
		top[bi], size[bi] = id, sa+sb
		// Remove bj from the live list.
		for x, k := range alive {
			if k == bj {
				alive = append(alive[:x], alive[x+1:]...)
				break
			}
		}
	}

	// The last merge made the root, node 2n−2; laid out, it comes last
	// again, so it keeps its index.
	root := 2*n - 2
	out := make([]tree.Node, 0, 2*n-1)
	out, l := preorder(out, nodes, nodes[root].Left, root)
	out, r := preorder(out, nodes, nodes[root].Right, root)
	out = append(out, tree.Node{Species: -1, Left: l, Right: r, Parent: tree.NoNode, Height: nodes[root].Height})
	return &tree.Tree{Nodes: out, Root: root}
}

// preorder appends the subtree of nodes rooted at id to out in preorder,
// hanging it under parent, and returns out and the subtree root's new id.
func preorder(out, nodes []tree.Node, id, parent int) ([]tree.Node, int) {
	nd := nodes[id]
	nd.Parent = parent
	newID := len(out)
	out = append(out, nd)
	if nd.Species < 0 {
		var l, r int
		out, l = preorder(out, nodes, nd.Left, newID)
		out, r = preorder(out, nodes, nd.Right, newID)
		out[newID].Left, out[newID].Right = l, r
	}
	return out, newID
}

// UPGMM builds the complete-linkage tree and returns it with its cost. The
// cost is the initial upper bound of Algorithm BBU (Step 3).
func UPGMM(m Matrix) (*tree.Tree, float64) {
	t := Build(m, Maximum)
	return t, t.Cost()
}

// UPGMA builds the classic average-linkage tree.
func UPGMA(m Matrix) *tree.Tree {
	return Build(m, Average)
}
