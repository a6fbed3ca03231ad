package tree

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// buildCaterpillar makes ((0,1),2),3)... with heights 1,2,3...
func buildCaterpillar(n int) *Tree {
	t := New(0)
	for s := 1; s < n; s++ {
		t = Join(t, New(s), float64(s))
	}
	return t
}

// randomUltraTree grows a random ultrametric tree by repeatedly joining
// random subtrees at increasing heights.
func randomUltraTree(rng *rand.Rand, n int) *Tree {
	parts := make([]*Tree, n)
	for i := range parts {
		parts[i] = New(i)
	}
	h := 0.0
	for len(parts) > 1 {
		h += rng.Float64() + 0.01
		i := rng.Intn(len(parts))
		j := rng.Intn(len(parts) - 1)
		if j >= i {
			j++
		}
		joined := Join(parts[i], parts[j], h)
		if i < j {
			i, j = j, i
		}
		parts[i] = parts[len(parts)-1]
		parts = parts[:len(parts)-1]
		if j == len(parts) {
			j = i
		}
		parts[j] = joined
	}
	return parts[0]
}

func TestJoinAndBasicProps(t *testing.T) {
	tr := buildCaterpillar(4)
	if err := tr.Validate(0); err != nil {
		t.Fatal(err)
	}
	if got := tr.LeafCount(); got != 4 {
		t.Fatalf("LeafCount = %d", got)
	}
	if got := tr.Height(); got != 3 {
		t.Fatalf("Height = %g", got)
	}
	leaves := tr.Leaves()
	if len(leaves) != 4 {
		t.Fatalf("Leaves = %v", leaves)
	}
	if !tr.IsUltrametricTree(1e-12) {
		t.Fatal("Join must produce ultrametric trees")
	}
}

func TestCostFormula(t *testing.T) {
	// ((0,1)@1, 2)@2: edges 1,1 (to leaves 0,1), 1 (internal), 2 (leaf 2).
	tr := buildCaterpillar(3)
	if got := tr.Cost(); got != 5 {
		t.Fatalf("Cost = %g, want 5", got)
	}
	// Cost must equal h(root) + Σ internal heights = 2 + (1+2) = 5.
	sum := tr.Height()
	for i := range tr.Nodes {
		if tr.Nodes[i].Species < 0 {
			sum += tr.Nodes[i].Height
		}
	}
	if sum != 5 {
		t.Fatalf("identity broken: %g", sum)
	}
}

func TestCostIdentityProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomUltraTree(rng, 2+rng.Intn(12))
		sum := tr.Height()
		for i := range tr.Nodes {
			if tr.Nodes[i].Species < 0 {
				sum += tr.Nodes[i].Height
			}
		}
		return math.Abs(sum-tr.Cost()) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLCAAndDist(t *testing.T) {
	tr := buildCaterpillar(4)
	if h := tr.Nodes[tr.LCA(0, 1)].Height; h != 1 {
		t.Fatalf("LCA(0,1) height = %g", h)
	}
	if h := tr.Nodes[tr.LCA(0, 3)].Height; h != 3 {
		t.Fatalf("LCA(0,3) height = %g", h)
	}
	if d := tr.Dist(0, 1); d != 2 {
		t.Fatalf("Dist(0,1) = %g", d)
	}
	if d := tr.Dist(2, 3); d != 6 {
		t.Fatalf("Dist(2,3) = %g", d)
	}
	if d := tr.Dist(1, 1); d != 0 {
		t.Fatalf("Dist(1,1) = %g", d)
	}
}

func TestDistEqualsPathLength(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		tr := randomUltraTree(rng, n)
		// d_T via heights must equal explicit path length.
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				lca := tr.LCA(a, b)
				// path length = 2 * height(lca) since leaves at height 0.
				if math.Abs(tr.Dist(a, b)-2*tr.Nodes[lca].Height) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr := buildCaterpillar(3)
	cases := []func(*Tree){
		func(c *Tree) { c.Nodes[c.Root].Parent = 0 },
		func(c *Tree) { c.Nodes[0].Height = -1 },
		func(c *Tree) { c.Nodes[c.Root].Height = 0.1 }, // below children
		func(c *Tree) {
			for i := range c.Nodes {
				if c.Nodes[i].Species >= 0 {
					c.Nodes[i].Height = 5
					return
				}
			}
		},
		func(c *Tree) {
			for i := range c.Nodes {
				if c.Nodes[i].Species < 0 && i != c.Root {
					c.Nodes[i].Left = NoNode
					return
				}
			}
		},
	}
	for i, corrupt := range cases {
		c := tr.Clone()
		corrupt(c)
		if err := c.Validate(1e-9); err == nil {
			t.Errorf("case %d: corruption not detected", i)
		}
	}
}

func TestAssignMinHeightsIsMinimalAndFeasible(t *testing.T) {
	// For random matrices and random topologies: feasibility holds, every
	// internal node is at a binding constraint (cannot be lowered), and
	// perturbing any height down breaks something.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		m := randMatrixView(rng, n)
		tr := randomUltraTree(rng, n)
		tr.AssignMinHeights(m)
		if !tr.Feasible(m, 1e-9) {
			return false
		}
		// Minimality: h(v) equals either max cross pair / 2 or a child's
		// height.
		for id := range tr.Nodes {
			v := &tr.Nodes[id]
			if v.Species >= 0 {
				continue
			}
			bind := math.Max(tr.Nodes[v.Left].Height, tr.Nodes[v.Right].Height)
			l := leavesOf(tr, v.Left)
			r := leavesOf(tr, v.Right)
			for _, a := range l {
				for _, b := range r {
					if d := m.At(a, b) / 2; d > bind {
						bind = d
					}
				}
			}
			if math.Abs(v.Height-bind) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

type matView struct {
	n int
	d [][]float64
}

func (m matView) Len() int            { return m.n }
func (m matView) At(i, j int) float64 { return m.d[i][j] }

func randMatrixView(rng *rand.Rand, n int) matView {
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 50 + 50*rng.Float64()
			d[i][j], d[j][i] = v, v
		}
	}
	return matView{n, d}
}

func leavesOf(t *Tree, id int) []int {
	n := t.Nodes[id]
	if n.Species >= 0 {
		return []int{n.Species}
	}
	return append(leavesOf(t, n.Left), leavesOf(t, n.Right)...)
}

func TestRelabelSpecies(t *testing.T) {
	tr := Join(New(0), New(1), 1)
	out := tr.RelabelSpecies([]int{5, 9})
	ls := out.Leaves()
	if len(ls) != 2 || ls[0] != 5 || ls[1] != 9 {
		t.Fatalf("Leaves = %v", ls)
	}
}

func TestSpeciesNames(t *testing.T) {
	tr := Join(New(0), New(1), 1)
	if got := tr.SpeciesName(0); got != "S1" {
		t.Fatalf("default name %q", got)
	}
	tr.SetNames([]string{"human", "chimp"})
	if got := tr.SpeciesName(1); got != "chimp" {
		t.Fatalf("name %q", got)
	}
	if got := tr.Names(); len(got) != 2 {
		t.Fatalf("Names = %v", got)
	}
}

func TestTripleRelations(t *testing.T) {
	tr := buildCaterpillar(3) // ((0,1),2)
	if got := tr.TreeTriple(0, 1, 2); got != IJ {
		t.Fatalf("TreeTriple = %v, want IJ", got)
	}
	if got := tr.TreeTriple(0, 2, 1); got != IK {
		t.Fatalf("TreeTriple = %v, want IK", got)
	}
}

func TestNewickRoundTrip(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		tr := randomUltraTree(rng, n)
		got, err := ParseNewick(tr.Newick(), 1e-6)
		if err != nil {
			return false
		}
		if got.LeafCount() != n {
			return false
		}
		// Costs and heights must survive the round trip (names differ in
		// species numbering order, so compare metric content: the sorted
		// pairwise distances).
		return math.Abs(got.Cost()-tr.Cost()) < 1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNewickRendering(t *testing.T) {
	tr := Join(New(0), New(1), 1.5)
	tr.SetNames([]string{"a b", "c"})
	nw := tr.Newick()
	if !strings.Contains(nw, "'a b'") {
		t.Fatalf("quoting missing: %s", nw)
	}
	if !strings.HasSuffix(nw, ";") {
		t.Fatalf("missing terminator: %s", nw)
	}
}

func TestParseNewickErrors(t *testing.T) {
	cases := []string{
		"",
		"(a,b",          // unclosed
		"(a,b,c);",      // non-binary
		"(a:1,b:2);",    // not ultrametric
		"(a:1,b:1);x",   // trailing garbage
		"('a,b:1,c:1);", // unterminated quote
	}
	for _, src := range cases {
		if _, err := ParseNewick(src, 1e-9); err == nil {
			t.Errorf("want error for %q", src)
		}
	}
}

func TestParseNewickQuotedNames(t *testing.T) {
	tr, err := ParseNewick("('it''s a name':2,plain:2);", 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	names := tr.Names()
	if len(names) != 2 || names[0] != "it's a name" {
		t.Fatalf("names = %v", names)
	}
}

func TestFeasible(t *testing.T) {
	m := matView{3, [][]float64{
		{0, 2, 6},
		{2, 0, 6},
		{6, 6, 0},
	}}
	tr := Join(Join(New(0), New(1), 1), New(2), 3)
	if !tr.Feasible(m, 0) {
		t.Fatal("feasible tree misreported")
	}
	tight := Join(Join(New(0), New(1), 0.5), New(2), 3)
	if tight.Feasible(m, 0) {
		t.Fatal("infeasible tree accepted (d_T(0,1)=1 < 2)")
	}
}

func TestEdgeWeight(t *testing.T) {
	tr := Join(Join(New(0), New(1), 1), New(2), 4)
	// Leaf 0's parent sits at height 1 → edge weight 1; the internal node's
	// parent is the root at height 4 → edge weight 3; the root has none.
	var internal int
	for id := range tr.Nodes {
		n := tr.Nodes[id]
		switch {
		case id == tr.Root:
			if tr.EdgeWeight(id) != 0 {
				t.Fatalf("root edge weight %g", tr.EdgeWeight(id))
			}
		case n.Species == 0 || n.Species == 1:
			if tr.EdgeWeight(id) != 1 {
				t.Fatalf("leaf edge weight %g", tr.EdgeWeight(id))
			}
		case n.Species == 2:
			if tr.EdgeWeight(id) != 4 {
				t.Fatalf("leaf 2 edge weight %g", tr.EdgeWeight(id))
			}
		default:
			internal++
			if tr.EdgeWeight(id) != 3 {
				t.Fatalf("internal edge weight %g", tr.EdgeWeight(id))
			}
		}
	}
	if internal != 1 {
		t.Fatalf("%d internal non-root nodes", internal)
	}
}

func TestJoinNamePropagation(t *testing.T) {
	a := New(0)
	b := New(1)
	b.SetNames([]string{"x", "y"})
	j := Join(a, b, 1)
	if j.SpeciesName(1) != "y" {
		t.Fatalf("Join must adopt the second tree's names when the first has none: %q", j.SpeciesName(1))
	}
}
