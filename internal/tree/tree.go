// Package tree implements rooted, edge-weighted, leaf-labeled binary trees
// with the ultrametric height semantics used throughout the paper: every
// internal node carries a height (its distance to any leaf of its subtree),
// leaves have height 0, and the weight of an edge is the height difference
// of its endpoints.
//
// The total tree weight ω(T) — the quantity minimized by the MUT problem —
// therefore equals h(root) + Σ h(v) over all internal nodes v, since every
// internal node of a binary tree has exactly two children.
package tree

import (
	"fmt"
	"math"
	"strconv"
)

// NoNode marks an absent parent/child link.
const NoNode = -1

// Node is one vertex of a Tree. Leaf nodes have Species >= 0 and no
// children; internal nodes have Species == -1 and exactly two children.
type Node struct {
	Species     int // species index for leaves, -1 for internal nodes
	Left, Right int // child node ids, NoNode for leaves
	Parent      int // parent node id, NoNode for the root
	Height      float64
}

// Tree is a rooted binary ultrametric tree. Nodes are stored in a flat
// slice; Root indexes it. Construct with builders in this package (or in
// upgma/bb) rather than by hand.
type Tree struct {
	Nodes []Node
	Root  int
	names []string // species names, indexed by Node.Species; may be nil
}

// New returns a tree consisting of a single leaf for species s.
func New(s int) *Tree {
	return &Tree{
		Nodes: []Node{{Species: s, Left: NoNode, Right: NoNode, Parent: NoNode}},
		Root:  0,
	}
}

// SetNames attaches species names used by Newick rendering. names[i] names
// species index i.
func (t *Tree) SetNames(names []string) { t.names = names }

// Names returns the attached species names (may be nil).
func (t *Tree) Names() []string { return t.names }

// SpeciesName returns the display name of species s.
func (t *Tree) SpeciesName(s int) string {
	if s >= 0 && s < len(t.names) && t.names[s] != "" {
		return t.names[s]
	}
	return "S" + strconv.Itoa(s+1)
}

// LeafCount returns the number of leaves.
func (t *Tree) LeafCount() int {
	c := 0
	for i := range t.Nodes {
		if t.Nodes[i].Species >= 0 {
			c++
		}
	}
	return c
}

// Leaves returns the species indices at the leaves, in left-to-right order.
func (t *Tree) Leaves() []int {
	var out []int
	var walk func(id int)
	walk = func(id int) {
		n := &t.Nodes[id]
		if n.Species >= 0 {
			out = append(out, n.Species)
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	if len(t.Nodes) > 0 {
		walk(t.Root)
	}
	return out
}

// Height returns the height of the root: the root-to-leaf path length.
func (t *Tree) Height() float64 { return t.Nodes[t.Root].Height }

// Cost returns ω(T) = Σ over edges of (h(parent) − h(child)).
func (t *Tree) Cost() float64 {
	var sum float64
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if n.Parent != NoNode {
			sum += t.Nodes[n.Parent].Height - n.Height
		}
	}
	return sum
}

// EdgeWeight returns the weight of the edge from node id to its parent.
func (t *Tree) EdgeWeight(id int) float64 {
	p := t.Nodes[id].Parent
	if p == NoNode {
		return 0
	}
	return t.Nodes[p].Height - t.Nodes[id].Height
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	c := &Tree{
		Nodes: append([]Node(nil), t.Nodes...),
		Root:  t.Root,
		names: t.names,
	}
	return c
}

// leafNode returns the node id of the leaf labeled with species s, or
// NoNode if absent.
func (t *Tree) leafNode(s int) int {
	for i := range t.Nodes {
		if t.Nodes[i].Species == s {
			return i
		}
	}
	return NoNode
}

// LCA returns the node id of the lowest common ancestor of species a and b.
// It panics if either species is not present.
func (t *Tree) LCA(a, b int) int {
	na, nb := t.leafNode(a), t.leafNode(b)
	if na == NoNode || nb == NoNode {
		panic(fmt.Sprintf("tree: LCA of absent species %d, %d", a, b))
	}
	depth := func(id int) int {
		d := 0
		for t.Nodes[id].Parent != NoNode {
			id = t.Nodes[id].Parent
			d++
		}
		return d
	}
	da, db := depth(na), depth(nb)
	for da > db {
		na, da = t.Nodes[na].Parent, da-1
	}
	for db > da {
		nb, db = t.Nodes[nb].Parent, db-1
	}
	for na != nb {
		na, nb = t.Nodes[na].Parent, t.Nodes[nb].Parent
	}
	return na
}

// Dist returns d_T(a, b) = 2 · height(LCA(a, b)) for species a ≠ b, 0 for
// a == b. This equality holds exactly because the tree is ultrametric.
func (t *Tree) Dist(a, b int) float64 {
	if a == b {
		return 0
	}
	return 2 * t.Nodes[t.LCA(a, b)].Height
}

// Validate checks structural invariants: parent/child links are mutually
// consistent, internal nodes have two children, every non-root node has a
// parent, heights are non-negative and monotone (child ≤ parent), and leaf
// heights are zero. tol bounds acceptable floating point slack in the
// monotonicity check.
func (t *Tree) Validate(tol float64) error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("tree: empty")
	}
	if t.Root < 0 || t.Root >= len(t.Nodes) {
		return fmt.Errorf("tree: root id %d out of range", t.Root)
	}
	if t.Nodes[t.Root].Parent != NoNode {
		return fmt.Errorf("tree: root has a parent")
	}
	seen := 0
	var walk func(id, parent int) error
	walk = func(id, parent int) error {
		if id < 0 || id >= len(t.Nodes) {
			return fmt.Errorf("tree: node id %d out of range", id)
		}
		seen++
		n := &t.Nodes[id]
		if n.Parent != parent {
			return fmt.Errorf("tree: node %d parent link %d, want %d", id, n.Parent, parent)
		}
		if n.Height < 0 {
			return fmt.Errorf("tree: node %d has negative height %g", id, n.Height)
		}
		if parent != NoNode && n.Height > t.Nodes[parent].Height+tol {
			return fmt.Errorf("tree: node %d height %g exceeds parent height %g",
				id, n.Height, t.Nodes[parent].Height)
		}
		if n.Species >= 0 {
			if n.Left != NoNode || n.Right != NoNode {
				return fmt.Errorf("tree: leaf %d has children", id)
			}
			if n.Height != 0 {
				return fmt.Errorf("tree: leaf %d has non-zero height %g", id, n.Height)
			}
			return nil
		}
		if n.Left == NoNode || n.Right == NoNode {
			return fmt.Errorf("tree: internal node %d lacks two children", id)
		}
		if err := walk(n.Left, id); err != nil {
			return err
		}
		return walk(n.Right, id)
	}
	if err := walk(t.Root, NoNode); err != nil {
		return err
	}
	if seen != len(t.Nodes) {
		return fmt.Errorf("tree: %d nodes reachable from root, %d stored", seen, len(t.Nodes))
	}
	return nil
}

// IsUltrametricTree reports whether all root-to-leaf path lengths agree
// within tol. With the height representation this is implied by Validate,
// but the explicit check documents the property the paper's model demands.
func (t *Tree) IsUltrametricTree(tol float64) bool {
	want := math.NaN()
	ok := true
	var walk func(id int, acc float64)
	walk = func(id int, acc float64) {
		n := &t.Nodes[id]
		if n.Species >= 0 {
			if math.IsNaN(want) {
				want = acc
			} else if math.Abs(acc-want) > tol {
				ok = false
			}
			return
		}
		walk(n.Left, acc+(n.Height-t.Nodes[n.Left].Height))
		walk(n.Right, acc+(n.Height-t.Nodes[n.Right].Height))
	}
	walk(t.Root, 0)
	return ok
}

// Join returns a new tree whose root has the two given trees as subtrees,
// with the given root height. Node ids are reassigned.
func Join(a, b *Tree, height float64) *Tree {
	out := &Tree{names: a.names}
	if out.names == nil {
		out.names = b.names
	}
	la := copyInto(out, a, a.Root, NoNode)
	lb := copyInto(out, b, b.Root, NoNode)
	root := len(out.Nodes)
	out.Nodes = append(out.Nodes, Node{
		Species: -1, Left: la, Right: lb, Parent: NoNode, Height: height,
	})
	out.Nodes[la].Parent = root
	out.Nodes[lb].Parent = root
	out.Root = root
	return out
}

// copyInto copies the subtree of src rooted at id into dst and returns the
// new id of that subtree's root. Parent links inside the copied subtree are
// fixed up; the subtree root's parent is set to parent.
func copyInto(dst, src *Tree, id, parent int) int {
	n := src.Nodes[id]
	newID := len(dst.Nodes)
	dst.Nodes = append(dst.Nodes, Node{
		Species: n.Species, Left: NoNode, Right: NoNode, Parent: parent, Height: n.Height,
	})
	if n.Species < 0 {
		l := copyInto(dst, src, n.Left, newID)
		r := copyInto(dst, src, n.Right, newID)
		dst.Nodes[newID].Left = l
		dst.Nodes[newID].Right = r
	}
	return newID
}

// RelabelSpecies returns a copy of t with each leaf species s replaced by
// mapping[s]. Used to translate trees built on reduced or permuted matrices
// back to original species indices.
func (t *Tree) RelabelSpecies(mapping []int) *Tree {
	c := t.Clone()
	for i := range c.Nodes {
		if s := c.Nodes[i].Species; s >= 0 {
			if s >= len(mapping) {
				panic(fmt.Sprintf("tree: RelabelSpecies: species %d outside mapping", s))
			}
			c.Nodes[i].Species = mapping[s]
		}
	}
	return c
}
