// Package nj implements the neighbor-joining method of Saitou and Nei —
// the heuristic baseline the papers cite as the method biologists commonly
// use when exact ultrametric construction is out of reach.
//
// Neighbor joining reconstructs an unrooted additive tree; Build returns it
// rooted at the last join with the conventional midpoint-free rooting, plus
// the additive pairwise path lengths so callers can compare d_T against the
// input matrix. For an exactly additive input matrix NJ recovers the tree
// distances exactly.
package nj

import (
	"fmt"
	"math"
)

// Matrix is the read-only distance view. *matrix.Matrix satisfies it.
type Matrix interface {
	Len() int
	At(i, j int) float64
}

// Node is one vertex of the NJ tree. Leaves carry the species index;
// internal nodes have Species == -1. Edge lengths hang on the child side.
type Node struct {
	Species     int
	Left, Right int
	Parent      int
	// EdgeLen is the length of the edge from this node to its parent.
	EdgeLen float64
}

// NoNode marks an absent link.
const NoNode = -1

// Tree is the (rooted representation of the) neighbor-joining tree.
type Tree struct {
	Nodes []Node
	Root  int
}

// Build runs neighbor joining on m. It requires at least one species.
func Build(m Matrix) (*Tree, error) {
	n := m.Len()
	if n == 0 {
		return nil, fmt.Errorf("nj: empty matrix")
	}
	t := &Tree{}
	if n == 1 {
		t.Nodes = []Node{{Species: 0, Left: NoNode, Right: NoNode, Parent: NoNode}}
		t.Root = 0
		return t, nil
	}

	// Working distance table over active cluster ids; cluster id maps to a
	// node id of the final tree.
	type clu struct{ node int }
	d := make([][]float64, 0, 2*n)
	nodeOf := make([]int, 0, 2*n)
	active := make([]int, n)
	for i := 0; i < n; i++ {
		t.Nodes = append(t.Nodes, Node{Species: i, Left: NoNode, Right: NoNode, Parent: NoNode})
		nodeOf = append(nodeOf, i)
		active[i] = i
	}
	d = make([][]float64, 2*n)
	for i := range d {
		d[i] = make([]float64, 2*n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d[i][j] = m.At(i, j)
		}
	}
	next := n // next cluster id

	for len(active) > 2 {
		r := len(active)
		// Row sums.
		sum := make(map[int]float64, r)
		for _, i := range active {
			s := 0.0
			for _, j := range active {
				s += d[i][j]
			}
			sum[i] = s
		}
		// Minimize the Q criterion.
		bi, bj := -1, -1
		best := math.Inf(1)
		for x := 0; x < r; x++ {
			for y := x + 1; y < r; y++ {
				i, j := active[x], active[y]
				q := float64(r-2)*d[i][j] - sum[i] - sum[j]
				if q < best {
					best, bi, bj = q, i, j
				}
			}
		}
		// Branch lengths to the new internal node.
		li := d[bi][bj]/2 + (sum[bi]-sum[bj])/(2*float64(r-2))
		lj := d[bi][bj] - li
		if li < 0 {
			li, lj = 0, d[bi][bj]
		}
		if lj < 0 {
			lj, li = 0, d[bi][bj]
		}
		u := next
		next++
		un := len(t.Nodes)
		t.Nodes = append(t.Nodes, Node{Species: -1, Left: nodeOf[bi], Right: nodeOf[bj], Parent: NoNode})
		t.Nodes[nodeOf[bi]].Parent = un
		t.Nodes[nodeOf[bi]].EdgeLen = li
		t.Nodes[nodeOf[bj]].Parent = un
		t.Nodes[nodeOf[bj]].EdgeLen = lj
		nodeOf = append(nodeOf, un)
		// New distances.
		for _, k := range active {
			if k == bi || k == bj {
				continue
			}
			nd := (d[bi][k] + d[bj][k] - d[bi][bj]) / 2
			if nd < 0 {
				nd = 0
			}
			d[u][k], d[k][u] = nd, nd
		}
		// Replace bi, bj with u in the active list.
		na := active[:0]
		for _, k := range active {
			if k != bi && k != bj {
				na = append(na, k)
			}
		}
		active = append(na, u)
	}

	// Join the final two clusters with the remaining distance.
	a, b := active[0], active[1]
	root := len(t.Nodes)
	t.Nodes = append(t.Nodes, Node{Species: -1, Left: nodeOf[a], Right: nodeOf[b], Parent: NoNode})
	t.Nodes[nodeOf[a]].Parent = root
	t.Nodes[nodeOf[a]].EdgeLen = d[a][b] / 2
	t.Nodes[nodeOf[b]].Parent = root
	t.Nodes[nodeOf[b]].EdgeLen = d[a][b] / 2
	t.Root = root
	return t, nil
}

// PathDist returns the additive tree distance between species a and b.
func (t *Tree) PathDist(a, b int) float64 {
	la, lb := t.leaf(a), t.leaf(b)
	if la == NoNode || lb == NoNode {
		panic(fmt.Sprintf("nj: PathDist of absent species %d, %d", a, b))
	}
	// Collect ancestor path of a with cumulative distances.
	distA := map[int]float64{}
	acc := 0.0
	for x := la; x != NoNode; x = t.Nodes[x].Parent {
		distA[x] = acc
		acc += t.Nodes[x].EdgeLen
	}
	acc = 0.0
	for x := lb; x != NoNode; x = t.Nodes[x].Parent {
		if da, ok := distA[x]; ok {
			return da + acc
		}
		acc += t.Nodes[x].EdgeLen
	}
	panic("nj: disconnected tree")
}

// TotalLength returns the sum of all edge lengths — the quantity NJ
// approximately minimizes (minimum evolution).
func (t *Tree) TotalLength() float64 {
	var sum float64
	for i := range t.Nodes {
		if t.Nodes[i].Parent != NoNode {
			sum += t.Nodes[i].EdgeLen
		}
	}
	return sum
}

func (t *Tree) leaf(s int) int {
	for i := range t.Nodes {
		if t.Nodes[i].Species == s {
			return i
		}
	}
	return NoNode
}
