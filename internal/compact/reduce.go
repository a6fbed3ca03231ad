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
// is short because no output of the pipeline carries it (Graft keeps
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

// Graft assembles the final ultrametric tree from the per-group solutions:
// groupTree is the tree solved over h's reduced matrix (leaf species =
// child row index), and subs[i] is the recursively assembled tree for
// child i (nil for singleton children). Heights are absolute, so grafting
// a subtree under its attachment parent needs no rescaling; the attachment
// edge simply spans the height difference. The compactness inequality
// Max(C) < Min(C, !C) makes that difference non-negative for Maximum
// reduction; for the other reductions heights are clamped upward if
// needed, which keeps the tree valid (but possibly infeasible, as the
// paper's cost comparison expects).
func Graft(groupTree *tree.Tree, h *Hierarchy, subs []*tree.Tree) (*tree.Tree, error) {
	if groupTree == nil {
		// A solver may legitimately return a nil tree (see bb.Result's nil
		// contract); fail with a diagnosable error instead of panicking on
		// the first node access.
		return nil, fmt.Errorf("compact: nil group tree for group %v", h.Members)
	}
	if len(subs) != len(h.Children) {
		return nil, fmt.Errorf("compact: %d subtrees for %d children", len(subs), len(h.Children))
	}
	out := &tree.Tree{}
	var build func(id, parent int, capHeight float64) (int, error)
	build = func(id, parent int, capHeight float64) (int, error) {
		n := groupTree.Nodes[id]
		if n.Species >= 0 {
			ch := h.Children[n.Species]
			if ch.IsLeaf() {
				newID := len(out.Nodes)
				out.Nodes = append(out.Nodes, tree.Node{
					Species: ch.Species(), Left: tree.NoNode, Right: tree.NoNode, Parent: parent,
				})
				return newID, nil
			}
			sub := subs[n.Species]
			if sub == nil {
				return 0, fmt.Errorf("compact: missing subtree for group %v", ch.Members)
			}
			return graftCopy(out, sub, sub.Root, parent, capHeight), nil
		}
		newID := len(out.Nodes)
		h := n.Height
		if h > capHeight {
			h = capHeight // clamp for non-Maximum reductions
		}
		out.Nodes = append(out.Nodes, tree.Node{
			Species: -1, Left: tree.NoNode, Right: tree.NoNode, Parent: parent, Height: h,
		})
		l, err := build(n.Left, newID, h)
		if err != nil {
			return 0, err
		}
		r, err := build(n.Right, newID, h)
		if err != nil {
			return 0, err
		}
		out.Nodes[newID].Left = l
		out.Nodes[newID].Right = r
		return newID, nil
	}
	root, err := build(groupTree.Root, tree.NoNode, math.Inf(1))
	if err != nil {
		return nil, err
	}
	out.Root = root
	return out, nil
}

// graftCopy copies sub's nodes into dst under parent, clamping heights to
// capHeight so the result always satisfies height monotonicity.
func graftCopy(dst, sub *tree.Tree, id, parent int, capHeight float64) int {
	n := sub.Nodes[id]
	h := n.Height
	if h > capHeight {
		h = capHeight
	}
	newID := len(dst.Nodes)
	dst.Nodes = append(dst.Nodes, tree.Node{
		Species: n.Species, Left: tree.NoNode, Right: tree.NoNode, Parent: parent, Height: h,
	})
	if n.Species < 0 {
		l := graftCopy(dst, sub, n.Left, newID, h)
		r := graftCopy(dst, sub, n.Right, newID, h)
		dst.Nodes[newID].Left = l
		dst.Nodes[newID].Right = r
	}
	return newID
}
