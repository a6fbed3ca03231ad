package compact

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"evotree/internal/graph"
	"evotree/internal/matrix"
	"evotree/internal/seqsim"
	"evotree/internal/tree"
	"evotree/internal/upgma"
)

// referenceFind is the direct transcription of the paper's loop: merge
// along the MST edges in Kruskal order and test each new component at once,
// rescanning its cut for Min(A, V∖A).
func referenceFind(m *matrix.Matrix) []Set {
	n := m.Len()
	mst, err := graph.MST(m)
	if err != nil {
		panic(err)
	}
	uf := newUnionFind(n)
	members := make(map[int][]int, n)
	maxIn := make(map[int]float64, n)
	for v := 0; v < n; v++ {
		members[v] = []int{v}
	}
	var sets []Set
	for i := 0; i < len(mst)-1; i++ {
		e := mst[i]
		ra, rb := uf.Find(e.U), uf.Find(e.V)
		ma, mb := members[ra], members[rb]
		cross := 0.0
		for _, a := range ma {
			for _, b := range mb {
				if d := m.At(a, b); d > cross {
					cross = d
				}
			}
		}
		newMax := math.Max(cross, math.Max(maxIn[ra], maxIn[rb]))
		uf.Union(e.U, e.V)
		r := uf.Find(e.U)
		merged := append(append(make([]int, 0, len(ma)+len(mb)), ma...), mb...)
		sort.Ints(merged)
		delete(members, ra)
		delete(members, rb)
		members[r] = merged
		maxIn[r] = newMax
		if newMax < minCut(m, merged) {
			sets = append(sets, Set(append([]int(nil), merged...)))
		}
	}
	return sets
}

// unionFind is a disjoint-set forest with union by rank and path
// compression: the reference detector's components.
type unionFind struct {
	parent []int
	rank   []int
}

// newUnionFind returns n singleton sets.
func newUnionFind(n int) *unionFind {
	u := &unionFind{
		parent: make([]int, n),
		rank:   make([]int, n),
	}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

// Find returns the representative of x's set.
func (u *unionFind) Find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// Union merges the sets containing a and b; it reports whether a merge
// happened (false if they were already together).
func (u *unionFind) Union(a, b int) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	return true
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(5)
	if !uf.Union(0, 1) {
		t.Fatal("first union must merge")
	}
	if uf.Union(1, 0) {
		t.Fatal("repeated union must not merge")
	}
	uf.Union(2, 3)
	uf.Union(0, 3)
	if uf.Find(1) != uf.Find(2) {
		t.Fatal("1 and 2 must share a set")
	}
	if uf.Find(4) == uf.Find(0) {
		t.Fatal("4 must be separate")
	}
}

// referenceHierarchy arranges sets by descending into the tree from the
// root for every set and then filling in singletons.
func referenceHierarchy(n int, sets []Set) *Hierarchy {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	root := &Hierarchy{Members: all}
	ordered := append([]Set(nil), sets...)
	sort.SliceStable(ordered, func(i, j int) bool { return len(ordered[i]) > len(ordered[j]) })
	for _, s := range ordered {
		referenceAttach(root, &Hierarchy{Members: append([]int(nil), s...), Compact: true})
	}
	referenceFill(root)
	return root
}

// referenceAttach adds node under the smallest group of parent's subtree
// containing it, adopting the children node covers.
func referenceAttach(parent, node *Hierarchy) {
	for _, ch := range parent.Children {
		if _, nodeInCh, _ := relate(node.Members, ch.Members); nodeInCh && !ch.IsLeaf() {
			referenceAttach(ch, node)
			return
		}
	}
	kept := parent.Children[:0]
	for _, ch := range parent.Children {
		if _, chInNode, _ := relate(ch.Members, node.Members); chInNode {
			node.Children = append(node.Children, ch)
		} else {
			kept = append(kept, ch)
		}
	}
	parent.Children = append(kept, node)
}

// referenceFill adds a leaf for every species no child covers and orders
// children by first member.
func referenceFill(h *Hierarchy) {
	if len(h.Members) == 1 {
		h.Children = nil
		return
	}
	covered := make(map[int]bool)
	for _, ch := range h.Children {
		for _, v := range ch.Members {
			covered[v] = true
		}
		referenceFill(ch)
	}
	for _, v := range h.Members {
		if !covered[v] {
			h.Children = append(h.Children, &Hierarchy{Members: []int{v}, Compact: true})
		}
	}
	sort.SliceStable(h.Children, func(i, j int) bool {
		return h.Children[i].Members[0] < h.Children[j].Members[0]
	})
}

// ownerHierarchy is the hierarchy pass Detect replaced: it places sets
// from largest to smallest, each under the owner of its first member (the
// smallest group placed so far that contains it), makes every species no
// set covers a leaf of its owner, and sorts each node's children by first
// member.
func ownerHierarchy(n int, sets []Set) *Hierarchy {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	root := &Hierarchy{Members: all, Compact: false}
	if n == 1 {
		return root
	}
	owner := make([]*Hierarchy, n)
	for v := range owner {
		owner[v] = root
	}
	ordered := slices.Clone(sets)
	slices.SortFunc(ordered, func(a, b Set) int { return cmp.Compare(len(b), len(a)) })
	groups := []*Hierarchy{root}
	for _, s := range ordered {
		node := &Hierarchy{Members: slices.Clone(s), Compact: true}
		parent := owner[s[0]]
		parent.Children = append(parent.Children, node)
		for _, v := range s {
			owner[v] = node
		}
		groups = append(groups, node)
	}
	for v, o := range owner {
		o.Children = append(o.Children, &Hierarchy{Members: []int{v}, Compact: true})
	}
	for _, g := range groups {
		slices.SortFunc(g.Children, func(a, b *Hierarchy) int {
			return cmp.Compare(a.Members[0], b.Members[0])
		})
	}
	return root
}

// seqsimMatrix is an mtDNA-like Hamming matrix over n species, as the
// decomposition benchmark draws them: integer distances in a narrow range,
// so ties are everywhere.
func seqsimMatrix(t *testing.T, seed int64, n int) *matrix.Matrix {
	t.Helper()
	ds, err := seqsim.Generate(rand.New(rand.NewSource(seed)), seqsim.Params{Species: n, SeqLen: 150, Rate: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	return ds.Matrix
}

// matchesReference reports whether Find returns the reference's sets in
// the reference's order, and Detect and BuildHierarchy the tree that both
// the top-down insertion and the owner pass build from them, Compact
// flags and child order included, with ready seeing the nodes in an
// order they can be solved in.
func matchesReference(t *testing.T, m *matrix.Matrix) bool {
	t.Helper()
	want := referenceFind(m)
	sets, err := Find(m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sets, want) {
		t.Errorf("n=%d: Find = %v, reference %v", m.Len(), sets, want)
		return false
	}
	var seen []*Hierarchy
	h, hsets, err := Detect(m, func(h *Hierarchy) { seen = append(seen, h) })
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceHierarchy(m.Len(), want)
	if !reflect.DeepEqual(hsets, want) || !reflect.DeepEqual(h, ref) ||
		!reflect.DeepEqual(h, ownerHierarchy(m.Len(), want)) {
		t.Errorf("n=%d: Detect = %s, reference %s", m.Len(), h, ref)
		return false
	}
	if b, _, err := BuildHierarchy(m); err != nil || !reflect.DeepEqual(b, ref) {
		t.Errorf("n=%d: BuildHierarchy = %v, %v; reference %s", m.Len(), b, err, ref)
		return false
	}
	if err := readyOrder(h, seen); err != nil {
		t.Errorf("n=%d: %v", m.Len(), err)
		return false
	}
	return true
}

// readyOrder checks that seen holds every internal node of h once, each
// after its internal children, and h last.
func readyOrder(h *Hierarchy, seen []*Hierarchy) error {
	at := make(map[*Hierarchy]int, len(seen))
	for i, g := range seen {
		if _, dup := at[g]; dup {
			return fmt.Errorf("node %v handed over twice", g.Members)
		}
		at[g] = i
	}
	post := h.PostOrder()
	if len(seen) != len(post) {
		return fmt.Errorf("%d nodes handed over, %d internal nodes", len(seen), len(post))
	}
	for _, g := range post {
		i, ok := at[g]
		if !ok {
			return fmt.Errorf("node %v never handed over", g.Members)
		}
		for _, ch := range g.Children {
			if !ch.IsLeaf() && at[ch] > i {
				return fmt.Errorf("node %v handed over before its child %v", g.Members, ch.Members)
			}
		}
	}
	if len(seen) > 0 && seen[len(seen)-1] != h {
		return fmt.Errorf("the root was not handed over last")
	}
	return nil
}

// valued fills an n×n matrix with distances drawn by d.
func valued(n int, d func() float64) *matrix.Matrix {
	m := matrix.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, d())
		}
	}
	return m
}

// TestFindMatchesReference covers ties of every kind: heavy ties among
// a few integers, all-equal and two-valued matrices, and a metric scaled
// by 0.1, whose distances round.
func TestFindMatchesReference(t *testing.T) {
	check := func(seed int64) bool {
		return matchesReference(t, referenceFamily(seed))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// referenceFamily draws the matrix of seed from the reference families:
// n from 1 to 40, metric, heavily tied, perturbed-ultrametric, a metric
// scaled by 0.1, all-equal or two-valued.
func referenceFamily(seed int64) *matrix.Matrix {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(40)
	var m *matrix.Matrix
	switch rng.Intn(6) {
	case 0:
		m = matrix.RandomMetric(rng, n, 50, 100)
	case 1:
		m = matrix.RandomMetric(rng, n, 1, 4) // heavy ties
	case 2:
		m = matrix.PerturbedUltrametric(rng, n, 100, 0.2)
	case 3:
		m = matrix.RandomMetric(rng, n, 50, 100)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Set(i, j, 0.1*m.At(i, j))
			}
		}
	case 4:
		m = valued(n, func() float64 { return 7 })
	default:
		m = valued(n, func() float64 { return float64(1 + rng.Intn(2)) })
	}
	return m
}

// streamMatchesDetect runs a Stream on m with Prim on the caller's
// goroutine and Advance raced from three others, each woken by every
// nudge, and requires Detect's root and sets, and a hand-over order the
// nodes can be solved in.
func streamMatchesDetect(t *testing.T, m *matrix.Matrix) bool {
	t.Helper()
	wantRoot, wantSets, err := Detect(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	const racers = 3
	wake, done := make(chan struct{}, racers), make(chan struct{})
	nudge := func() {
		for range racers {
			select {
			case wake <- struct{}{}:
			default:
			}
		}
	}
	var seen []*Hierarchy // ready runs under the walk's lock
	s := NewStream(m, func(h *Hierarchy) { seen = append(seen, h) }, nudge)
	var wg sync.WaitGroup
	for range racers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-wake:
					s.Advance()
				case <-done:
					return
				}
			}
		}()
	}
	root, sets, err := s.Run()
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(root, wantRoot) || !reflect.DeepEqual(sets, wantSets) {
		t.Errorf("n=%d: Stream = %s with sets %v, Detect %s with %v", m.Len(), root, sets, wantRoot, wantSets)
		return false
	}
	if err := readyOrder(root, seen); err != nil {
		t.Errorf("n=%d: %v", m.Len(), err)
		return false
	}
	return true
}

// TestStreamMatchesDetect races the concurrent form on the reference
// families and on seqsim inputs.
func TestStreamMatchesDetect(t *testing.T) {
	check := func(seed int64) bool {
		return streamMatchesDetect(t, referenceFamily(seed))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{400, 600} {
		streamMatchesDetect(t, seqsimMatrix(t, int64(n), n))
	}
}

func TestFindMatchesReferenceOnSeqsim(t *testing.T) {
	for _, n := range []int{400, 600} {
		matchesReference(t, seqsimMatrix(t, int64(n), n))
	}
}

// TestBuildHierarchyAlloc bounds the bytes BuildHierarchy allocates at
// n=600, detection included: O(n) scratch plus the sets and the tree.
func TestBuildHierarchyAlloc(t *testing.T) {
	m := seqsimMatrix(t, 1, 600)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, err := BuildHierarchy(m)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("BuildHierarchy allocated %d bytes at n=600, want < %d", got, 1<<20)
	}
}

// referenceGroupDistance is GroupDistance read pair by pair through At,
// a's species outer and b's inner.
func referenceGroupDistance(m *matrix.Matrix, a, b []int, r Reduction) float64 {
	switch r {
	case Maximum:
		best := math.Inf(-1)
		for _, i := range a {
			for _, j := range b {
				if d := m.At(i, j); d > best {
					best = d
				}
			}
		}
		return best
	case Minimum:
		best := math.Inf(1)
		for _, i := range a {
			for _, j := range b {
				if d := m.At(i, j); d < best {
					best = d
				}
			}
		}
		return best
	}
	sum := 0.0
	for _, i := range a {
		for _, j := range b {
			sum += m.At(i, j)
		}
	}
	return sum / float64(len(a)*len(b))
}

// TestReduceMatchesReference checks every entry of every reduced matrix,
// at every internal hierarchy node and under all three rules, bit for bit
// against the At transcription, and that the row labels of each reduced
// matrix are unique. Besides the integer seqsim matrices, a float-valued
// one makes Average's summation order show in the last bits.
func TestReduceMatchesReference(t *testing.T) {
	mats := []*matrix.Matrix{
		seqsimMatrix(t, 400, 400),
		seqsimMatrix(t, 600, 600),
		matrix.PerturbedUltrametric(rand.New(rand.NewSource(3)), 300, 100, 0.05),
	}
	for _, m := range mats {
		n := m.Len()
		h, _, err := BuildHierarchy(m)
		if err != nil {
			t.Fatal(err)
		}
		nodes := 0
		var walk func(h *Hierarchy)
		walk = func(h *Hierarchy) {
			if h.IsLeaf() {
				return
			}
			nodes++
			for _, r := range []Reduction{Maximum, Minimum, Average} {
				small, kids, err := Reduce(m, h, r)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(kids, h.Children) {
					t.Fatalf("n=%d: Reduce rows are not the node's children", n)
				}
				labels := map[string]bool{}
				for i := range kids {
					labels[small.Name(i)] = true
					for j := range kids {
						want := 0.0
						if i != j {
							// Each unordered pair is condensed once, lower
							// row first, and mirrored.
							a, b := kids[min(i, j)], kids[max(i, j)]
							want = referenceGroupDistance(m, a.Members, b.Members, r)
						}
						if got := small.At(i, j); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("n=%d %v: entry (%d,%d) of group %v = %v, reference %v",
								n, r, i, j, h.Members, got, want)
						}
					}
				}
				if len(labels) != len(kids) {
					t.Fatalf("n=%d: %d labels for %d rows of group %v", n, len(labels), len(kids), h.Members)
				}
			}
			for _, ch := range h.Children {
				walk(ch)
			}
		}
		walk(h)
		if nodes < 20 {
			t.Fatalf("n=%d: only %d internal nodes; the check wants a deep hierarchy", n, nodes)
		}
	}
}

// referenceGraft is the per-level merge Assemble replaced: groupTree is
// the tree solved over h's reduced matrix (leaf species = child row
// index), and subs[i] is the recursively assembled tree for child i (nil
// for singleton children). Each subtree is copied under its attachment
// parent with heights clamped to the attachment height.
func referenceGraft(groupTree *tree.Tree, h *Hierarchy, subs []*tree.Tree) (*tree.Tree, error) {
	if groupTree == nil {
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
			return referenceGraftCopy(out, sub, sub.Root, parent, capHeight), nil
		}
		newID := len(out.Nodes)
		h := n.Height
		if h > capHeight {
			h = capHeight
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

// referenceGraftCopy copies sub's nodes into dst under parent, clamping
// heights to capHeight.
func referenceGraftCopy(dst, sub *tree.Tree, id, parent int, capHeight float64) int {
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
		l := referenceGraftCopy(dst, sub, n.Left, newID, h)
		r := referenceGraftCopy(dst, sub, n.Right, newID, h)
		dst.Nodes[newID].Left = l
		dst.Nodes[newID].Right = r
	}
	return newID
}

// referenceAssemble grafts the group trees bottom-up with referenceGraft,
// each finished subtree copied into its parent.
func referenceAssemble(h *Hierarchy, trees map[*Hierarchy]*tree.Tree) (*tree.Tree, error) {
	subs := make([]*tree.Tree, len(h.Children))
	for i, ch := range h.Children {
		if ch.IsLeaf() {
			continue
		}
		sub, err := referenceAssemble(ch, trees)
		if err != nil {
			return nil, err
		}
		subs[i] = sub
	}
	return referenceGraft(trees[h], h, subs)
}

// upgmmGroupTrees reduces every internal node of h under r and solves the
// small matrix with UPGMM.
func upgmmGroupTrees(t *testing.T, m *matrix.Matrix, h *Hierarchy, r Reduction) map[*Hierarchy]*tree.Tree {
	t.Helper()
	trees := map[*Hierarchy]*tree.Tree{}
	for _, g := range h.PostOrder() {
		small, _, err := Reduce(m, g, r)
		if err != nil {
			t.Fatal(err)
		}
		trees[g] = upgma.Build(small, upgma.Maximum)
	}
	return trees
}

// overTall counts the internal children whose group tree is taller than
// the node it hangs from in its parent's group tree: the attachments
// where the merge has to clamp.
func overTall(trees map[*Hierarchy]*tree.Tree) int {
	c := 0
	for h, g := range trees {
		for _, n := range g.Nodes {
			if n.Species < 0 || h.Children[n.Species].IsLeaf() {
				continue
			}
			if trees[h.Children[n.Species]].Height() > g.Nodes[n.Parent].Height {
				c++
			}
		}
	}
	return c
}

// TestAssembleMatchesReference requires Assemble's one pass to write the
// nodes, layout and height bits of the nested grafts, under all three
// reductions. UPGMM group trees never hang a child above its attachment
// (compactness puts every attachment above Max(C)/2), so each input runs
// a second time with the group trees stretched by random factors, which
// makes the clamp work at every depth.
func TestAssembleMatchesReference(t *testing.T) {
	mats := []*matrix.Matrix{
		seqsimMatrix(t, 400, 400),
		seqsimMatrix(t, 600, 600),
		matrix.PerturbedUltrametric(rand.New(rand.NewSource(3)), 300, 100, 0.05),
	}
	rng := rand.New(rand.NewSource(17))
	for range 50 {
		mats = append(mats, matrix.PerturbedUltrametric(rng, 2+rng.Intn(40), 100, 0.2))
	}
	clamped := 0
	for _, m := range mats {
		h, _, err := BuildHierarchy(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []Reduction{Maximum, Minimum, Average} {
			trees := upgmmGroupTrees(t, m, h, r)
			if c := overTall(trees); c != 0 {
				t.Fatalf("n=%d %v: %d UPGMM group trees above their attachment", m.Len(), r, c)
			}
			stretched := map[*Hierarchy]*tree.Tree{}
			for _, g := range h.PostOrder() {
				s := trees[g].Clone()
				f := []float64{0.5, 1, 2, 4}[rng.Intn(4)]
				for i := range s.Nodes {
					s.Nodes[i].Height *= f
				}
				stretched[g] = s
			}
			clamped += overTall(stretched)
			matchesNestedGrafts(t, fmt.Sprintf("n=%d %v", m.Len(), r), h, trees)
			matchesNestedGrafts(t, fmt.Sprintf("n=%d %v stretched", m.Len(), r), h, stretched)
		}
	}
	if clamped == 0 {
		t.Fatal("no stretched group tree rose above its attachment; the clamp went unchecked")
	}
	// A +0 height under a −0 cap stays +0.
	h, child := pairAndSingleton()
	matchesNestedGrafts(t, "signed zeros", h, map[*Hierarchy]*tree.Tree{
		h:     tree.Join(tree.New(0), tree.New(1), math.Copysign(0, -1)),
		child: tree.Join(tree.New(0), tree.New(1), 0),
	})
}

// matchesNestedGrafts requires Assemble to return the nested grafts' root
// and nodes, heights compared bit for bit (DeepEqual takes −0 == +0).
func matchesNestedGrafts(t *testing.T, name string, h *Hierarchy, trees map[*Hierarchy]*tree.Tree) {
	t.Helper()
	want, err := referenceAssemble(h, trees)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Assemble(h, trees)
	if err != nil {
		t.Fatal(err)
	}
	if got.Root != want.Root || !reflect.DeepEqual(got.Nodes, want.Nodes) {
		t.Fatalf("%s: Assemble differs from the nested grafts", name)
	}
	for i := range got.Nodes {
		if g, w := got.Nodes[i].Height, want.Nodes[i].Height; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: node %d height %v, nested grafts %v", name, i, g, w)
		}
	}
}

// TestAssembleAlloc pins Assemble's allocations: the tree and its node
// array, the same at every n.
func TestAssembleAlloc(t *testing.T) {
	mats := []*matrix.Matrix{
		matrix.PerturbedUltrametric(rand.New(rand.NewSource(8)), 8, 100, 0.1),
		matrix.PerturbedUltrametric(rand.New(rand.NewSource(32)), 32, 100, 0.1),
		seqsimMatrix(t, 1, 600),
	}
	for _, m := range mats {
		h, _, err := BuildHierarchy(m)
		if err != nil {
			t.Fatal(err)
		}
		trees := upgmmGroupTrees(t, m, h, Maximum)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Assemble(h, trees); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 2 {
			t.Fatalf("n=%d: Assemble made %v allocations, want 2", m.Len(), allocs)
		}
	}
}
