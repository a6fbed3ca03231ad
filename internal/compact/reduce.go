package compact

import (
	"fmt"
	"math"
	"strings"

	"evotree/internal/matrix"
	"evotree/internal/tree"
)

// Reduction selects how the distance between two groups is condensed into
// one entry of a small matrix. The paper defines maximum, minimum and
// average and evaluates the maximum variant; only maximum guarantees that
// the merged tree stays feasible (d_T ≥ M).
type Reduction int

// Reduction rules.
const (
	Maximum Reduction = iota
	Minimum
	Average
)

// String names the reduction.
func (r Reduction) String() string {
	switch r {
	case Maximum:
		return "maximum"
	case Minimum:
		return "minimum"
	case Average:
		return "average"
	}
	return fmt.Sprintf("Reduction(%d)", int(r))
}

// ParseReduction converts a name from the CLI into a Reduction.
func ParseReduction(s string) (Reduction, error) {
	switch strings.ToLower(s) {
	case "maximum", "max":
		return Maximum, nil
	case "minimum", "min":
		return Minimum, nil
	case "average", "avg":
		return Average, nil
	}
	return 0, fmt.Errorf("compact: unknown reduction %q (want maximum|minimum|average)", s)
}

// GroupDistance condenses the cross distances between species groups a and
// b of m under the rule. Every rule scans a's rows in order, b inner, so
// Average always sums in the same order.
func GroupDistance(m *matrix.Matrix, a, b []int, r Reduction) float64 {
	switch r {
	case Maximum:
		best := math.Inf(-1)
		for _, i := range a {
			row := m.Row(i)
			for _, j := range b {
				if d := row[j]; d > best {
					best = d
				}
			}
		}
		return best
	case Minimum:
		best := math.Inf(1)
		for _, i := range a {
			row := m.Row(i)
			for _, j := range b {
				if d := row[j]; d < best {
					best = d
				}
			}
		}
		return best
	case Average:
		sum := 0.0
		for _, i := range a {
			row := m.Row(i)
			for _, j := range b {
				sum += row[j]
			}
		}
		return sum / float64(len(a)*len(b))
	}
	panic("compact: invalid reduction")
}

// GroupName labels a hierarchy child for display: the species name for
// leaves, "C{...}" listing every member for groups.
func GroupName(m *matrix.Matrix, h *Hierarchy) string {
	if h.IsLeaf() {
		return m.Name(h.Species())
	}
	parts := make([]string, len(h.Members))
	for i, v := range h.Members {
		parts[i] = m.Name(v)
	}
	return "C{" + strings.Join(parts, ",") + "}"
}

// rowLabel names a hierarchy child's row in its parent's reduced matrix:
// the species name for a leaf, and for a group its first member's name
// inside C{…}. Siblings are disjoint, so no two share a label. The label
// is short because no output of the pipeline carries it (Assemble keeps
// species indices); GroupName gives the full member list for display.
func rowLabel(m *matrix.Matrix, h *Hierarchy) string {
	if h.IsLeaf() {
		return m.Name(h.Species())
	}
	return "C{" + m.Name(h.Members[0]) + "}"
}

// Reduce builds the small matrix of hierarchy node h over m: one row per
// child, with entries condensed by r. It returns the matrix and the child
// nodes in row order. h must be internal.
func Reduce(m *matrix.Matrix, h *Hierarchy, r Reduction) (*matrix.Matrix, []*Hierarchy, error) {
	if h.IsLeaf() {
		return nil, nil, fmt.Errorf("compact: Reduce on a leaf group")
	}
	k := len(h.Children)
	names := make([]string, k)
	for i, ch := range h.Children {
		names[i] = rowLabel(m, ch)
	}
	small, err := matrix.NewWithNames(names)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			small.Set(i, j, GroupDistance(m, h.Children[i].Members, h.Children[j].Members, r))
		}
	}
	return small, h.Children, nil
}

// Assemble writes the decomposed tree of root in one preorder pass.
// trees[h] is the group tree solved over internal node h's reduced matrix
// (leaf species = child row index); at a leaf that stands for an internal
// child the pass descends into that child's group tree, and at a
// singleton child it writes the species. Heights are absolute, so a
// child's subtree needs no rescaling under its attachment parent; the
// attachment edge simply spans the height difference. The compactness
// inequality Max(C) < Min(C, !C) makes that difference non-negative for
// Maximum reduction; each height is also clamped to its parent's, so the
// tree stays valid whatever group trees come in (but possibly
// infeasible, as the paper's cost comparison expects). A one-species
// root yields its leaf.
func Assemble(root *Hierarchy, trees map[*Hierarchy]*tree.Tree) (*tree.Tree, error) {
	if root.IsLeaf() {
		return tree.New(root.Species()), nil
	}
	a := assembler{trees: trees, nodes: make([]tree.Node, 0, 2*len(root.Members)-1)}
	id, err := a.group(root, tree.NoNode, math.Inf(1))
	if err != nil {
		return nil, err
	}
	return &tree.Tree{Nodes: a.nodes, Root: id}, nil
}

// assembler carries Assemble's output and inputs through the recursion.
type assembler struct {
	trees map[*Hierarchy]*tree.Tree
	nodes []tree.Node
}

// group writes internal node h's group tree under parent and returns the
// id of its root.
func (a *assembler) group(h *Hierarchy, parent int, capHeight float64) (int, error) {
	g := a.trees[h]
	if g == nil {
		// A solver may legitimately return a nil tree (see bb.Result's nil
		// contract); fail with a diagnosable error instead of panicking on
		// the first node access.
		return 0, fmt.Errorf("compact: no group tree for group %v", h.Members)
	}
	return a.node(h, g, g.Root, parent, capHeight)
}

// node writes node id of h's group tree g under parent, clamping its
// height to capHeight, and returns its new id. The cap is the parent's
// height as written, so one clamp per node equals grafting each finished
// subtree into its parent and clamping again at every level above; the
// > test, unlike min, also keeps a +0 height under a −0 cap as +0.
func (a *assembler) node(h *Hierarchy, g *tree.Tree, id, parent int, capHeight float64) (int, error) {
	n := &g.Nodes[id]
	if n.Species >= 0 {
		ch := h.Children[n.Species]
		if !ch.IsLeaf() {
			return a.group(ch, parent, capHeight)
		}
		a.nodes = append(a.nodes, tree.Node{
			Species: ch.Species(), Left: tree.NoNode, Right: tree.NoNode, Parent: parent,
		})
		return len(a.nodes) - 1, nil
	}
	height := n.Height
	if height > capHeight {
		height = capHeight // a group tree taller than its attachment
	}
	newID := len(a.nodes)
	a.nodes = append(a.nodes, tree.Node{
		Species: -1, Left: tree.NoNode, Right: tree.NoNode, Parent: parent, Height: height,
	})
	l, err := a.node(h, g, n.Left, newID, height)
	if err != nil {
		return 0, err
	}
	r, err := a.node(h, g, n.Right, newID, height)
	if err != nil {
		return 0, err
	}
	a.nodes[newID].Left, a.nodes[newID].Right = l, r
	return newID, nil
}
