// Package compact implements the paper's headline technique: detecting the
// compact sets of the complete weighted graph induced by a distance matrix
// and using them to split the matrix into several small matrices whose
// ultrametric subtrees can be built independently (and in parallel) and
// merged without losing the relations among species.
//
// A set C ⊆ V is compact when the largest distance inside C is smaller
// than every distance leaving C (Lemma 2). The paper finds compact sets
// with Kruskal's algorithm: process minimum-spanning-tree edges in
// ascending order, merge the endpoint components, and test each merged
// component against the compactness predicate (its Algorithm "Compact
// Sets"). Those components are runs of the order in which Prim's
// algorithm joins the vertices, so Detect walks that order instead and
// reports the same sets in the same order. Any two compact sets are
// nested or disjoint (Lemma 3), so the family forms a laminar hierarchy;
// Lemma 1 guarantees each compact set appears as a clade of any
// relation-faithful tree, which is why the decomposition preserves the
// phylogeny.
package compact

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

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
// walk over the order in which Prim's algorithm joins the vertices, run
// after Prim, and hands each internal node to ready, when ready is
// non-nil, the moment the node is final: every node after its children,
// and the root last. It returns the root and the sets in Kruskal
// discovery order; a compact node's Members is its set's slice, so
// neither may be changed. It is a Stream run with nobody advancing it
// while Prim runs.
func Detect(m *matrix.Matrix, ready func(*Hierarchy)) (*Hierarchy, []Set, error) {
	return NewStream(m, ready, nil).Run()
}

// nudgeSteps is how many of Prim's steps a Stream publishes between
// nudges.
const nudgeSteps = 16

// Stream is Detect with the walk open to other goroutines while Prim
// runs. Run grows the tree on its caller's goroutine and publishes each
// joining step; Advance, called from any goroutine, takes the steps
// published so far into the walk, which confirms compact sets and hands
// their nodes to ready as it goes. One goroutine at a time advances the
// walk: Advance returns at once while another holds it. ready runs on
// whichever goroutine advances the walk, with the walk held, which keeps
// the hand-overs in the walk's order; so it must return promptly and not
// call back into the Stream. Once Prim has finished, Run takes the
// remaining steps itself and completes the walk, so a Stream that nobody
// advances is Detect.
type Stream struct {
	m *matrix.Matrix
	// nudge, when non-nil, is called on Run's goroutine after every
	// nudgeSteps published steps, so that a goroutine parked until there
	// are steps to take can wake. It must not block.
	nudge func()
	// Step j, for 1 ≤ j < n, joined vertex joined[j] along an edge of
	// weight weight[j] from tree vertex from[j]; Run writes a step before
	// it publishes it.
	joined, from []int
	weight       []float64
	published    atomic.Int64 // steps written
	grown        atomic.Bool  // Prim has finished
	mu           sync.Mutex   // held by the goroutine advancing the walk
	taken        int          // steps the walk has taken, under mu
	w            walk         // under mu
}

// NewStream prepares the detection of m's compact sets; ready and nudge
// may be nil.
func NewStream(m *matrix.Matrix, ready func(*Hierarchy), nudge func()) *Stream {
	n := m.Len()
	s := &Stream{m: m, nudge: nudge,
		joined: make([]int, n), from: make([]int, n), weight: make([]float64, n)}
	s.w.init(m, ready)
	return s
}

// Run grows the minimum spanning tree, publishing each step, then takes
// the steps no Advance has taken and completes the walk, handing the
// root to ready last. It returns what Detect returns and may be called
// once.
func (s *Stream) Run() (*Hierarchy, []Set, error) {
	n := s.m.Len()
	if n == 0 {
		return nil, nil, fmt.Errorf("compact: empty matrix")
	}
	j := 0
	graph.Prim(s.m, func(v, from int, weight float64) {
		j++
		s.joined[j], s.from[j], s.weight[j] = v, from, weight
		s.published.Store(int64(j))
		if s.nudge != nil && j%nudgeSteps == 0 {
			s.nudge()
		}
	})
	s.grown.Store(true)
	s.mu.Lock()
	defer s.mu.Unlock()
	// The heaviest tree edge is known now, so the cross scans of the
	// remaining merges may stop at it.
	if n > 1 {
		s.w.top = slices.Max(s.weight[1:])
	}
	for s.taken < n-1 {
		s.next()
	}
	root, sets := s.w.finish()
	return root, sets, nil
}

// Advance takes the steps Prim has published into the walk, unless
// another goroutine is advancing it, and returns. Once Prim has finished
// it stops at the next step and leaves the rest to Run, whose scans may
// stop early.
func (s *Stream) Advance() {
	if !s.mu.TryLock() {
		return
	}
	defer s.mu.Unlock()
	for p := int(s.published.Load()); s.taken < p && !s.grown.Load(); {
		s.next()
	}
}

// next feeds the walk its next step; the caller holds mu.
func (s *Stream) next() {
	s.taken++
	s.w.add(s.joined[s.taken], s.from[s.taken], s.weight[s.taken])
}

// walk turns Prim's joining order into the compact sets and their
// hierarchy. Let e_j be the edge that joins the j-th vertex. The
// components of Kruskal's walk are runs of the order, and Kruskal's merge
// tree is the max-Cartesian tree of e_1 … e_{n−1} under the strict edge
// order, which the stack of open runs builds left to right: a new edge
// first merges every run on top whose left edge is lighter, and each
// merge forms one component of Kruskal's walk, now complete, whose
// cut weight Min(C, V∖C) is the lighter of its two bounding edges. The
// test is Max(C) below that weight. Max(C) grows by the cross pairs of
// each merge, which visits every pair once. No test weighs more than the
// heaviest tree edge, top, so once Max(C) reaches it neither C nor any
// run holding C can be compact: the cross scan stops there, and later
// merges of C scan nothing. Until Prim has finished top is unknown (+Inf)
// and every merge scans in full. Each run carries the list of its maximal
// confirmed parts, compact nodes and singleton leaves; a merge
// concatenates the two lists, and a confirmation wraps its list into the
// run's node. The walk takes O(n²) time and O(n) extra memory besides
// its output.
type walk struct {
	m      *matrix.Matrix
	ready  func(*Hierarchy)
	top    float64
	leaves []*Hierarchy // leaves[v] is species v's leaf
	all    []int        // 0..n−1: the leaves' members, and each singleton run's
	stack  []run
	sets   []Set      // the confirmed sets, in confirmation order
	formed []formedBy // one per confirmed set
}

// run is one open run of Prim's order on the walk's stack.
type run struct {
	left    graph.Edge // the edge that joined the run's first vertex; +Inf weight for the first run
	formed  graph.Edge // the edge whose merge formed the run
	members []int      // sorted
	maxIn   float64    // the largest distance inside, or a lower bound of it ≥ top
	parts   []*Hierarchy
}

// formedBy pairs a confirmed set's index with the edge whose merge formed
// it. It holds no pointer, so sorting it moves no pointers.
type formedBy struct {
	edge graph.Edge
	set  int
}

func (w *walk) init(m *matrix.Matrix, ready func(*Hierarchy)) {
	n := m.Len()
	w.m, w.ready, w.top = m, ready, math.Inf(1)
	w.all = make([]int, n)
	nodes := make([]Hierarchy, n)
	w.leaves = make([]*Hierarchy, n)
	w.stack = make([]run, 0, n)
	// The leaves, and the members of every singleton run, share one
	// array; a capacity of one makes mergeSorted copy out of it.
	for v := range w.all {
		w.all[v] = v
		nodes[v] = Hierarchy{Members: w.all[v : v+1 : v+1], Compact: true}
		w.leaves[v] = &nodes[v]
	}
	if n > 0 {
		w.push(graph.Edge{Weight: math.Inf(1)}, 0)
	}
}

// push opens a run of the one vertex v, which joined along edge left.
func (w *walk) push(left graph.Edge, v int) {
	w.stack = append(w.stack, run{left: left, members: w.all[v : v+1 : v+1], parts: w.leaves[v : v+1 : v+1]})
}

// add takes the step joining v to tree vertex from along an edge of the
// given weight.
func (w *walk) add(v, from int, weight float64) {
	e := graph.Edge{U: min(v, from), V: max(v, from), Weight: weight}
	for len(w.stack) > 1 && w.stack[len(w.stack)-1].left.Compare(e) < 0 {
		w.merge()
		w.test(weight)
	}
	w.push(e, v)
}

// finish merges the runs left once Prim's order has run out, the last
// merge forming V, and returns the root and the confirmed sets sorted by
// the edges that formed them: Kruskal's discovery order.
func (w *walk) finish() (*Hierarchy, []Set) {
	if len(w.all) == 1 {
		return &Hierarchy{Members: w.all}, nil // a lone species is a leaf
	}
	for len(w.stack) > 1 {
		w.merge()
		if len(w.stack) > 1 {
			w.test(math.Inf(1))
		}
	}
	r := &w.stack[0]
	root := wrap(r.members, r.parts, false, w.ready)
	slices.SortFunc(w.formed, func(a, b formedBy) int { return a.edge.Compare(b.edge) })
	var sets []Set
	for _, f := range w.formed {
		sets = append(sets, w.sets[f.set])
	}
	return root, sets
}

// merge joins the top two runs of the stack along the upper one's left
// edge.
func (w *walk) merge() {
	t := len(w.stack) - 1
	a, b := &w.stack[t-1], &w.stack[t]
	cross := 0.0
	if a.maxIn < w.top && b.maxIn < w.top {
	scan:
		for _, x := range a.members {
			row := w.m.Row(x)
			for _, y := range b.members {
				if d := row[y]; d > cross {
					if cross = d; cross >= w.top {
						break scan
					}
				}
			}
		}
	}
	a.maxIn = max(cross, a.maxIn, b.maxIn)
	a.formed = b.left
	a.members = mergeSorted(a.members, b.members)
	pa, pb := a.parts, b.parts
	if cap(pa) < cap(pb) {
		pa, pb = pb, pa // append onto the roomier list
	}
	a.parts = append(pa, pb...)
	w.stack = w.stack[:t]
}

// test confirms the top run when it is compact: when its largest inner
// distance is below both its left edge and the edge of the given weight
// that bounds it on the right.
func (w *walk) test(right float64) {
	r := &w.stack[len(w.stack)-1]
	if r.maxIn < min(r.left.Weight, right) {
		s := Set(slices.Clone(r.members))
		w.formed = append(w.formed, formedBy{r.formed, len(w.sets)})
		w.sets = append(w.sets, s)
		r.parts = []*Hierarchy{wrap(s, r.parts, true, w.ready)}
	}
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
