// Package compact implements the paper's headline technique: detecting the
// compact sets of the complete weighted graph induced by a distance matrix
// and using them to split the matrix into several small matrices whose
// ultrametric subtrees can be built independently (and in parallel) and
// merged without losing the relations among species.
//
// A set C ⊆ V is compact when the largest distance inside C is smaller
// than every distance leaving C (Lemma 2). Compact sets are found by
// Kruskal's algorithm: process minimum-spanning-tree edges in ascending
// order, merge the endpoint components, and test each merged component
// against the compactness predicate (the paper's Algorithm "Compact
// Sets"). Any two compact sets are nested or disjoint (Lemma 3), so the
// family forms a laminar hierarchy; Lemma 1 guarantees each compact set
// appears as a clade of any relation-faithful tree, which is why the
// decomposition preserves the phylogeny.
package compact

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"evotree/internal/graph"
	"evotree/internal/matrix"
)

// Set is one compact set: the sorted species indices it contains.
type Set []int

// Find returns every non-trivial compact set of m (size ≥ 2 and < n), in
// Kruskal discovery order. The full vertex set and singletons — compact by
// convention — are omitted, matching the paper's listing.
//
// Each MST edge but the last forms one candidate component A. A is tested
// when it is next merged: by the cut property the lightest edge leaving A
// is the MST edge that next merges it, so that edge's weight is
// Min(A, V∖A). Max(A) grows by the cross pairs of each merge, which visits
// every pair once, so Find takes O(n²) time and O(n) extra memory besides
// the sets it returns.
func Find(m *matrix.Matrix) ([]Set, error) {
	n := m.Len()
	if n == 0 {
		return nil, fmt.Errorf("compact: empty matrix")
	}
	mst, err := graph.MST(m)
	if err != nil {
		return nil, err
	}
	uf := graph.NewUnionFind(n)
	// Per root: the component's sorted members, its largest internal
	// distance, and the index of the MST edge that formed it (-1 for a
	// singleton, which is no candidate).
	members := make([][]int, n)
	maxIn := make([]float64, n)
	formed := make([]int, n)
	for v := range members {
		members[v] = []int{v}
		formed[v] = -1
	}
	// found[i] is the set mst[i] formed, if it proved compact. The last
	// edge forms V itself, which is not reported.
	found := make([]Set, max(n-2, 0))
	for i, e := range mst {
		ra, rb := uf.Find(e.U), uf.Find(e.V)
		for _, r := range [2]int{ra, rb} {
			if formed[r] >= 0 && maxIn[r] < e.Weight {
				found[formed[r]] = Set(slices.Clone(members[r]))
			}
		}
		cross := 0.0
		for _, a := range members[ra] {
			row := m.Row(a)
			for _, b := range members[rb] {
				if d := row[b]; d > cross {
					cross = d
				}
			}
		}
		newMax := math.Max(cross, math.Max(maxIn[ra], maxIn[rb]))
		merged := mergeSorted(members[ra], members[rb])
		members[ra], members[rb] = nil, nil // only the new root's list stays live
		uf.Union(ra, rb)
		r := uf.Find(ra)
		members[r], maxIn[r], formed[r] = merged, newMax, i
	}
	sets := found[:0]
	for _, s := range found {
		if s != nil {
			sets = append(sets, s)
		}
	}
	if len(sets) == 0 {
		return nil, nil
	}
	return sets, nil
}

// mergeSorted merges two sorted, disjoint member lists into the larger
// one's backing array, from the back, in O(len(a)+len(b)).
func mergeSorted(a, b []int) []int {
	if len(a) < len(b) {
		a, b = b, a
	}
	i, j := len(a)-1, len(b)-1
	a = slices.Grow(a, len(b))[:len(a)+len(b)]
	for k := len(a) - 1; j >= 0; k-- {
		if i >= 0 && a[i] > b[j] {
			a[k], i = a[i], i-1
		} else {
			a[k], j = b[j], j-1
		}
	}
	return a
}

// minCut returns the smallest distance between a vertex in set and one
// outside it (Min(A, !A) of the paper). Returns +Inf when set covers all
// vertices.
func minCut(m *matrix.Matrix, set []int) float64 {
	in := make([]bool, m.Len())
	for _, v := range set {
		in[v] = true
	}
	best := math.Inf(1)
	for _, a := range set {
		for b := 0; b < m.Len(); b++ {
			if in[b] {
				continue
			}
			if d := m.At(a, b); d < best {
				best = d
			}
		}
	}
	return best
}

// IsCompact reports whether set satisfies the compactness predicate
// Max(set) < Min(set, complement) on m. Singletons and the full vertex set
// are compact by convention.
func IsCompact(m *matrix.Matrix, set []int) bool {
	if len(set) <= 1 || len(set) >= m.Len() {
		return true
	}
	maxIn := 0.0
	for x := 0; x < len(set); x++ {
		for y := x + 1; y < len(set); y++ {
			if d := m.At(set[x], set[y]); d > maxIn {
				maxIn = d
			}
		}
	}
	return maxIn < minCut(m, set)
}

// IsLaminar reports whether every pair of sets is nested or disjoint
// (Lemma 3 guarantees this for compact sets of a single matrix).
func IsLaminar(sets []Set) bool {
	for i := 0; i < len(sets); i++ {
		for j := i + 1; j < len(sets); j++ {
			inter, aInB, bInA := relate(sets[i], sets[j])
			if inter && !aInB && !bInA {
				return false
			}
		}
	}
	return true
}

// relate reports whether a and b intersect, whether a ⊆ b, and whether
// b ⊆ a.
func relate(a, b Set) (intersect, aInB, bInA bool) {
	inB := make(map[int]bool, len(b))
	for _, v := range b {
		inB[v] = true
	}
	common := 0
	for _, v := range a {
		if inB[v] {
			common++
		}
	}
	return common > 0, common == len(a), common == len(b)
}

// Hierarchy is the laminar tree of compact sets: each node owns a group of
// species and partitions it among its children (maximal compact proper
// subsets plus leftover singletons). Leaves hold exactly one species.
type Hierarchy struct {
	Members  []int // sorted species indices of this group
	Children []*Hierarchy
	Compact  bool // whether Members is one of the detected compact sets
}

// Species returns the single species of a leaf node; it panics on internal
// nodes.
func (h *Hierarchy) Species() int {
	if len(h.Members) != 1 {
		panic("compact: Species on non-leaf hierarchy node")
	}
	return h.Members[0]
}

// IsLeaf reports whether the node holds exactly one species.
func (h *Hierarchy) IsLeaf() bool { return len(h.Members) == 1 }

// Count returns the number of internal (multi-species) hierarchy nodes —
// the number of subproblems the decomposition will solve.
func (h *Hierarchy) Count() int {
	if h.IsLeaf() {
		return 0
	}
	c := 1
	for _, ch := range h.Children {
		c += ch.Count()
	}
	return c
}

// PostOrder returns the internal nodes under h in post-order, each after
// its children and h last: the subproblems in the order the decomposition
// reduces and reports them. Its length is Count.
func (h *Hierarchy) PostOrder() []*Hierarchy {
	var out []*Hierarchy
	var walk func(h *Hierarchy)
	walk = func(h *Hierarchy) {
		if h.IsLeaf() {
			return
		}
		for _, ch := range h.Children {
			walk(ch)
		}
		out = append(out, h)
	}
	walk(h)
	return out
}

// String renders the hierarchy as nested braces, e.g. "{{1 3} 2}".
func (h *Hierarchy) String() string {
	if h.IsLeaf() {
		return fmt.Sprint(h.Members[0])
	}
	parts := make([]string, len(h.Children))
	for i, ch := range h.Children {
		parts[i] = ch.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// CheckHierarchy verifies the structural invariants BuildHierarchy
// promises: each internal node's children partition its members, members
// are sorted and duplicate-free, leaves hold exactly one species, and
// every node flagged Compact satisfies the compactness predicate on m.
// The verification harness runs it against every decomposition.
func CheckHierarchy(m *matrix.Matrix, h *Hierarchy) error {
	if len(h.Members) == 0 {
		return fmt.Errorf("compact: hierarchy node with no members")
	}
	for i := 1; i < len(h.Members); i++ {
		if h.Members[i] <= h.Members[i-1] {
			return fmt.Errorf("compact: members %v not sorted/unique", h.Members)
		}
	}
	if h.Compact && !IsCompact(m, h.Members) {
		return fmt.Errorf("compact: node %v flagged compact but fails the predicate", h.Members)
	}
	if h.IsLeaf() {
		if len(h.Children) != 0 {
			return fmt.Errorf("compact: leaf %v has children", h.Members)
		}
		return nil
	}
	seen := make(map[int]bool, len(h.Members))
	for _, ch := range h.Children {
		for _, v := range ch.Members {
			if seen[v] {
				return fmt.Errorf("compact: species %d in two children of %v", v, h.Members)
			}
			seen[v] = true
		}
		if err := CheckHierarchy(m, ch); err != nil {
			return err
		}
	}
	if len(seen) != len(h.Members) {
		return fmt.Errorf("compact: children of %v cover %d of %d members", h.Members, len(seen), len(h.Members))
	}
	for _, v := range h.Members {
		if !seen[v] {
			return fmt.Errorf("compact: species %d of %v missing from children", v, h.Members)
		}
	}
	return nil
}

// BuildHierarchy arranges the compact sets of m into their laminar tree.
// The root covers all species even though V itself is not a detected set.
func BuildHierarchy(m *matrix.Matrix) (*Hierarchy, []Set, error) {
	sets, err := Find(m)
	if err != nil {
		return nil, nil, err
	}
	n := m.Len()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	root := &Hierarchy{Members: all, Compact: false}
	if n == 1 {
		return root, sets, nil // a lone species is a leaf
	}
	// Place sets from largest to smallest. owner[v] is the smallest group
	// placed so far that contains species v; by laminarity every member of
	// the next set has the same owner, and that owner is the set's parent.
	owner := make([]*Hierarchy, n)
	for v := range owner {
		owner[v] = root
	}
	ordered := slices.Clone(sets)
	slices.SortFunc(ordered, func(a, b Set) int { return cmp.Compare(len(b), len(a)) })
	groups := make([]*Hierarchy, 0, len(sets)+1)
	groups = append(groups, root)
	for _, s := range ordered {
		node := &Hierarchy{Members: slices.Clone(s), Compact: true}
		parent := owner[s[0]]
		parent.Children = append(parent.Children, node)
		for _, v := range s {
			owner[v] = node
		}
		groups = append(groups, node)
	}
	// Each species no set child covers becomes a leaf of its owner.
	for v, o := range owner {
		o.Children = append(o.Children, &Hierarchy{Members: []int{v}, Compact: true})
	}
	for _, g := range groups {
		slices.SortFunc(g.Children, func(a, b *Hierarchy) int {
			return cmp.Compare(a.Members[0], b.Members[0])
		})
	}
	return root, sets, nil
}
