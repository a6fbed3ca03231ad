package bb

import (
	"unsafe"

	"evotree/internal/tree"
)

// PNode is one node of the branch-and-bound tree (BBT): a partial topology
// over the first K permuted species together with its minimal ultrametric
// realization (heights), its cost, and its lower bound. PNodes are
// self-contained values so pools may move them freely between workers.
//
// All per-node storage lives in a single slab allocation sized for the
// complete topology (2n−1 tree nodes), carved into the typed views below.
// A partial topology with K leaves occupies entries [0, 2K−1) of each view
// (and [0, K) of leafID, [0, K−1) of order); the remaining capacity is
// used in place as the topology grows, so inserting a species never
// reallocates.
type PNode struct {
	K    int     // number of species placed (permuted ids 0..K-1)
	Cost float64 // ω of the minimal UT realizing this partial topology
	LB   float64 // Cost + tail(K); monotone along any root-to-leaf BBT path

	root int32

	// Flat binary-tree storage; node ids index these views into the slab.
	parent  []int32
	left    []int32
	right   []int32
	species []int32 // permuted species id for leaves, -1 for internal
	leafID  []int32 // permuted species id -> node id (length n)
	height  []float64
	mask    []uint64 // set of permuted species under each node

	// order lists the K−1 internal node ids children first: each after
	// its internal children, so the root comes last. The pricing pass
	// reads it forward to fill maxima bottom-up and backward to push
	// raises top-down (see price).
	order []int32
}

// newPNode allocates a node for an n-species problem: one slab holds every
// field. The slab is a []uint64 (8-byte aligned by construction), so the
// float64 and int32 views carved from it with unsafe.Slice are always
// correctly aligned; the derived slices keep the backing array alive.
func newPNode(n int) *PNode {
	maxN := 2*n - 1                // tree nodes in a complete topology
	nInt32 := 4*maxN + 2*n - 1     // parent, left, right, species + leafID + order
	words := 2*maxN + (nInt32+1)/2 // mask + height + packed int32 area
	slab := make([]uint64, words)
	v := &PNode{}
	v.mask = slab[:maxN:maxN]
	v.height = unsafe.Slice((*float64)(unsafe.Pointer(&slab[maxN])), maxN)
	ints := unsafe.Slice((*int32)(unsafe.Pointer(&slab[2*maxN])), nInt32)
	v.parent = ints[0*maxN : 1*maxN : 1*maxN]
	v.left = ints[1*maxN : 2*maxN : 2*maxN]
	v.right = ints[2*maxN : 3*maxN : 3*maxN]
	v.species = ints[3*maxN : 4*maxN : 4*maxN]
	v.leafID = ints[4*maxN : 4*maxN+n : 4*maxN+n]
	v.order = ints[4*maxN+n : nInt32 : nInt32]
	return v
}

// copyFrom overwrites c with v's partial topology. Both nodes must belong
// to problems of the same size.
func (c *PNode) copyFrom(v *PNode) {
	nn := 2*v.K - 1
	c.K, c.Cost, c.LB = v.K, v.Cost, v.LB
	c.root = v.root
	copy(c.parent[:nn], v.parent[:nn])
	copy(c.left[:nn], v.left[:nn])
	copy(c.right[:nn], v.right[:nn])
	copy(c.species[:nn], v.species[:nn])
	copy(c.height[:nn], v.height[:nn])
	copy(c.mask[:nn], v.mask[:nn])
	copy(c.leafID[:v.K], v.leafID[:v.K])
	copy(c.order[:v.K-1], v.order[:v.K-1])
}

// NodePool is a free list of PNodes for one problem. It is NOT safe for
// concurrent use: every search goroutine owns its own pool (the paper's
// per-worker discipline), and nodes may migrate between pools freely
// because all nodes of a problem share one slab layout. A nil *NodePool is
// valid and simply allocates fresh nodes.
type NodePool struct {
	n    int
	free []*PNode

	// Pricing-pass scratch (see price): the max-distance table and the
	// raise table. Expand, Child and the propagation bound each use them
	// within one call, so one pair serves them all, and the pooled steady
	// state allocates nothing (the AllocsPerRun guards cover both the
	// expand and the propagate path).
	md []float64
	r  []float64

	// kids backs the children slice Expand returns; it is valid until the
	// next Expand on this pool.
	kids []*PNode
}

// NewPool returns an empty free list for p's node size, with a children
// buffer sized for the most positions any node of p has.
func (p *Problem) NewPool() *NodePool {
	return &NodePool{n: p.n, kids: make([]*PNode, 0, 2*p.n-1)}
}

// get returns a recycled node, or a freshly allocated one when the free
// list is empty (or the pool is nil). n is the problem size, needed for
// the nil-pool path.
func (np *NodePool) get(n int) *PNode {
	if np == nil || len(np.free) == 0 {
		return newPNode(n)
	}
	v := np.free[len(np.free)-1]
	np.free[len(np.free)-1] = nil
	np.free = np.free[:len(np.free)-1]
	return v
}

// scratch returns the pricing pass's length-nn max-distance and raise
// tables, reused across calls so the steady state allocates nothing. The
// first call sizes them for the complete topology, so a deepening search
// never regrows them. A nil pool allocates fresh slices (the nil-pool
// slow path).
func (np *NodePool) scratch(nn int) (md, r []float64) {
	if np == nil {
		return make([]float64, nn), make([]float64, nn)
	}
	if cap(np.md) < nn {
		size := max(nn, 2*np.n-1)
		np.md = make([]float64, size)
		np.r = make([]float64, size)
	}
	return np.md[:nn], np.r[:nn]
}

// Put recycles a node the caller no longer references. Putting nil is a
// no-op, as is putting into a nil pool.
func (np *NodePool) Put(v *PNode) {
	if np == nil || v == nil {
		return
	}
	np.free = append(np.free, v)
}

// Root returns the BBT root: the unique topology on permuted species 0, 1
// (Step 2 of BBU).
func (p *Problem) Root() *PNode {
	h := p.dist(0, 1) / 2
	v := newPNode(p.n)
	v.K = 2
	v.parent[0], v.parent[1], v.parent[2] = 2, 2, -1
	v.left[0], v.left[1], v.left[2] = -1, -1, 0
	v.right[0], v.right[1], v.right[2] = -1, -1, 1
	v.species[0], v.species[1], v.species[2] = 0, 1, -1
	v.height[0], v.height[1], v.height[2] = 0, 0, h
	v.mask[0], v.mask[1], v.mask[2] = 1, 2, 3
	v.leafID[0], v.leafID[1] = 0, 1
	v.order[0] = 2
	v.root = 2
	v.Cost = h + h
	v.LB = v.Cost + p.tail[2]
	return v
}

// Positions returns the number of children Expand will consider for v: one
// per edge of the partial topology plus one above the root, i.e. 2K−1.
func (v *PNode) Positions() int { return 2*v.K - 1 }

// Complete reports whether v places all species of p.
func (v *PNode) Complete(p *Problem) bool { return v.K == p.n }

// posNode returns the node whose parent edge insertion position pos
// splits: pos in [0, 2K−2) indexes the non-root nodes in id order, and
// pos == 2K−2 is the position above the root, which returns the root
// itself. Expand, Child and insertion paths all number positions so.
func (v *PNode) posNode(pos int) int32 {
	if pos == 2*v.K-2 {
		return v.root
	}
	e := int32(pos)
	if e >= v.root {
		e++ // the root has no parent edge
	}
	return e
}

// price runs the pricing pass for unplaced species s over v. Two passes
// over flat arrays: first md[x] = max_{j under x} d[s][j], the leaves
// from s's matrix row and then the internal nodes bottom-up in v.order;
// then r[x] = R(x), top-down over v.order reversed, the sum over the
// strict ancestors u of x of
//
//	A(u) = max(0, md[u]/2 − h(u)),
//
// the rise u needs once s sits below it. It returns v.Cost + A(root):
// inserting s above node e (e = root for the position above the root)
// then costs that plus spend(v, e, md, r), O(1) per position. md and r
// need length 2K−1. s may be any unplaced species (the propagation bound
// prices every one of them), so the row read covers exactly the v.K
// placed leaves.
func (p *Problem) price(v *PNode, s int, md, r []float64) float64 {
	k := v.K
	for sp, val := range p.d[s*p.n : s*p.n+k] {
		md[v.leafID[sp]] = val
	}
	order := v.order[:k-1]
	for _, x := range order {
		m := md[v.left[x]]
		if mr := md[v.right[x]]; mr > m {
			m = mr
		}
		md[x] = m
	}
	root := v.root
	r[root] = 0
	for i := len(order) - 1; i >= 0; i-- {
		x := order[i]
		a := r[x]
		if half, hx := md[x]/2, v.height[x]; half > hx {
			a += half - hx // A(x), charged to both subtrees
		}
		r[v.left[x]], r[v.right[x]] = a, a
	}
	base := v.Cost
	if half, hr := md[root]/2, v.height[root]; half > hr {
		base += half - hr
	}
	return base
}

// spend is what inserting the priced species above node x adds beyond
// v.Cost + A(root): the new joining node's height max(h(x), md[x]/2) plus
// the raises R(x) of x's ancestors. It is also the propagation bound's
// spend_t(x) (see propagate.go).
func spend(v *PNode, x int32, md, r []float64) float64 {
	h := md[x] / 2
	if hx := v.height[x]; hx > h {
		h = hx
	}
	return h + r[x]
}

// insert returns a copy of v with permuted species s added above node e
// (on e's parent edge, or above the root when e is the root), drawn from
// np. Its Cost is cost, the price the caller computed for that position
// (price's base plus spend), so the child's LB is bit-identical to the
// bound it was kept on. md is the table price swept for s; every lookup
// below reads a node that predates the insertion, so v's table is valid
// for c.
func (p *Problem) insert(v *PNode, s int, e int32, cost float64, np *NodePool, md []float64) *PNode {
	c := np.get(p.n)
	c.copyFrom(v)
	sb := uint64(1) << uint(s)
	leaf := int32(2*v.K - 1) // the new leaf node
	in := leaf + 1           // the new internal node
	c.species[leaf], c.parent[leaf] = int32(s), -1
	c.left[leaf], c.right[leaf] = -1, -1
	c.height[leaf], c.mask[leaf] = 0, sb
	c.leafID[s] = leaf

	h := md[e] / 2
	if c.height[e] > h {
		h = c.height[e]
	}
	par := c.parent[e]
	c.species[in], c.parent[in] = -1, par
	c.left[in], c.right[in] = e, leaf
	c.height[in], c.mask[in] = h, c.mask[e]|sb
	c.parent[e], c.parent[leaf] = in, in
	switch {
	case par == -1:
		c.root = in // inserted above the root
	case c.left[par] == e:
		c.left[par] = in
	default:
		c.right[par] = in
	}
	// The new internal node goes just before its parent in the
	// children-first order, so it follows e (listed before par already)
	// and precedes every ancestor; above the root it becomes the last.
	order := c.order[:v.K]
	i := v.K - 1
	if par != -1 {
		for order[i-1] != par {
			i--
		}
		i--
		copy(order[i+1:], order[i:v.K-1])
	}
	order[i] = in
	// Every ancestor rises to max(h(u), md[u]/2): its new cross pairs
	// (s, j) with j below it need md[u]/2, and the rise of its on-path
	// child never exceeds that, because heights grow toward the root and
	// md[u] covers the child's md.
	for u := par; u != -1; u = c.parent[u] {
		if hu := md[u] / 2; hu > c.height[u] {
			c.height[u] = hu
		}
		c.mask[u] |= sb
	}
	c.K = v.K + 1
	c.Cost = cost
	c.LB = cost + p.tail[c.K]
	return c
}

// Tree materializes the partial topology as a tree.Tree labeled with the
// ORIGINAL species indices (undoing the max–min permutation) and carrying
// the original species names.
func (v *PNode) Tree(p *Problem) *tree.Tree {
	nn := 2*v.K - 1
	t := &tree.Tree{Nodes: make([]tree.Node, nn), Root: int(v.root)}
	for i := 0; i < nn; i++ {
		sp := int(v.species[i])
		if sp >= 0 {
			sp = p.perm[sp]
		}
		t.Nodes[i] = tree.Node{
			Species: sp,
			Left:    int(v.left[i]),
			Right:   int(v.right[i]),
			Parent:  int(v.parent[i]),
			Height:  v.height[i],
		}
	}
	t.SetNames(p.names)
	return t
}

// lcaHeight returns the height of the LCA of permuted species a and b in
// the partial topology.
func (v *PNode) lcaHeight(a, b int) float64 {
	x := v.leafID[a]
	bb := uint64(1) << uint(b)
	for x != -1 {
		if v.mask[x]&bb != 0 {
			return v.height[x]
		}
		x = v.parent[x]
	}
	return v.height[v.root]
}
