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
// convention — are omitted, matching the paper's listing. It is Detect
// without a callback, the hierarchy dropped.
func Find(m *matrix.Matrix) ([]Set, error) {
	_, sets, err := Detect(m, nil)
	return sets, err
}

// BuildHierarchy arranges the compact sets of m into their laminar tree and
// returns it with Find's sets. The root covers all species even though V
// itself is not a detected set. It is Detect without a callback.
func BuildHierarchy(m *matrix.Matrix) (*Hierarchy, []Set, error) {
	return Detect(m, nil)
}

// Detect finds the compact sets of m and builds their hierarchy in one
// walk, and hands each internal node to ready, when ready is non-nil, the
// moment the node is final: every node after its children, and the root
// last. It returns the root and the sets in Kruskal discovery order; a
// compact node's Members is its set's slice, so neither may be changed.
//
// Each MST edge but the last forms one candidate component A. A is tested
// when it is next merged: by the cut property the lightest edge leaving A
// is the MST edge that next merges it, so that edge's weight is
// Min(A, V∖A). Max(A) grows by the cross pairs of each merge, which visits
// every pair once. No test weighs more than the heaviest MST edge, so once
// Max(A) reaches it neither A nor any component holding A can be compact:
// the cross scan stops there, and later merges of A scan nothing. Every
// compact set inside A is confirmed by A's test, since its own next merge
// lies inside A, so each component carries the list of its maximal
// confirmed parts, compact nodes and singleton leaves; a merge
// concatenates the two lists, and a confirmation wraps its list into A's
// node. Detect takes O(n²) time and O(n) extra memory besides its output.
func Detect(m *matrix.Matrix, ready func(*Hierarchy)) (*Hierarchy, []Set, error) {
	n := m.Len()
	if n == 0 {
		return nil, nil, fmt.Errorf("compact: empty matrix")
	}
	mst, err := graph.MST(m)
	if err != nil {
		return nil, nil, err
	}
	// The leaves, and the members of every singleton component, share one
	// array; a capacity of one makes mergeSorted copy out of it.
	all := make([]int, n)
	leaves := make([]Hierarchy, n)
	leafPtrs := make([]*Hierarchy, n)
	// Per root: the component's sorted members, its largest internal
	// distance, the index of the MST edge that formed it (-1 for a
	// singleton, which is no candidate), and its maximal confirmed parts.
	members := make([][]int, n)
	maxIn := make([]float64, n)
	formed := make([]int, n)
	parts := make([][]*Hierarchy, n)
	for v := range all {
		all[v] = v
		members[v] = all[v : v+1 : v+1]
		leaves[v] = Hierarchy{Members: members[v], Compact: true}
		leafPtrs[v] = &leaves[v]
		parts[v] = leafPtrs[v : v+1 : v+1]
		formed[v] = -1
	}
	if n == 1 {
		return &Hierarchy{Members: all}, nil, nil // a lone species is a leaf
	}
	uf := graph.NewUnionFind(n)
	// found[i] is the set mst[i] formed, if it proved compact. The last
	// edge forms V itself, which is not reported.
	found := make([]Set, n-2)
	top := mst[n-2].Weight // the heaviest edge, which weighs every test at most
	for i, e := range mst {
		ra, rb := uf.Find(e.U), uf.Find(e.V)
		for _, r := range [2]int{ra, rb} {
			if formed[r] >= 0 && maxIn[r] < e.Weight {
				s := Set(slices.Clone(members[r]))
				found[formed[r]] = s
				parts[r] = []*Hierarchy{wrap(s, parts[r], true, ready)}
			}
		}
		cross := 0.0
		if maxIn[ra] < top && maxIn[rb] < top {
		scan:
			for _, a := range members[ra] {
				row := m.Row(a)
				for _, b := range members[rb] {
					if d := row[b]; d > cross {
						if cross = d; cross >= top {
							break scan
						}
					}
				}
			}
		}
		newMax := math.Max(cross, math.Max(maxIn[ra], maxIn[rb]))
		merged := mergeSorted(members[ra], members[rb])
		pa, pb := parts[ra], parts[rb]
		if cap(pa) < cap(pb) {
			pa, pb = pb, pa // append onto the roomier list
		}
		joined := append(pa, pb...)
		// Only the new root's lists stay live.
		members[ra], members[rb], parts[ra], parts[rb] = nil, nil, nil, nil
		uf.Union(ra, rb)
		r := uf.Find(ra)
		members[r], maxIn[r], formed[r], parts[r] = merged, newMax, i, joined
	}
	r := uf.Find(0)
	root := wrap(members[r], parts[r], false, ready)
	sets := found[:0]
	for _, s := range found {
		if s != nil {
			sets = append(sets, s)
		}
	}
	if len(sets) == 0 {
		sets = nil
	}
	return root, sets, nil
}

// wrap makes the hierarchy node of a component from its maximal confirmed
// parts, sorted by first member, and hands it to ready.
func wrap(members []int, parts []*Hierarchy, compact bool, ready func(*Hierarchy)) *Hierarchy {
	slices.SortFunc(parts, func(a, b *Hierarchy) int { return cmp.Compare(a.Members[0], b.Members[0]) })
	h := &Hierarchy{Members: members, Children: parts, Compact: compact}
	if ready != nil {
		ready(h)
	}
	return h
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
