package verify

import (
	"strings"
	"testing"

	"evotree/internal/bb"
	"evotree/internal/compact"
	"evotree/internal/core"
	"evotree/internal/matrix"
	"evotree/internal/tree"
)

func solved(t *testing.T, m *matrix.Matrix) (*tree.Tree, float64) {
	t.Helper()
	res, err := bb.Solve(m, bb.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return res.Tree, res.Cost
}

// TestCheckTreeAcceptsOptimal: a clean optimal tree passes every checker.
func TestCheckTreeAcceptsOptimal(t *testing.T) {
	for _, kind := range Kinds {
		m, err := GenerateInstance(kind, 8, 42)
		if err != nil {
			t.Fatal(err)
		}
		tr, cost := solved(t, m)
		if fails := CheckTree(m, tr, cost); len(fails) != 0 {
			t.Errorf("%s: clean tree rejected: %v", kind, fails)
		}
	}
}

// TestCheckTreeRejections: each corruption trips the checker aimed at it.
// These are mutation tests for the invariant layer — a checker that never
// fires verifies nothing.
func TestCheckTreeRejections(t *testing.T) {
	m, err := GenerateInstance("uniform", 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr, cost := solved(t, m)

	corrupt := func(name, wantProp string, mutate func(c *tree.Tree) float64) {
		t.Helper()
		c := tr.Clone()
		reported := mutate(c)
		fails := CheckTree(m, c, reported)
		for _, f := range fails {
			if f.Property == wantProp {
				return
			}
		}
		t.Errorf("%s: want a %q failure, got %v", name, wantProp, fails)
	}

	if fails := CheckTree(m, nil, 0); len(fails) != 1 || fails[0].Property != "structure" {
		t.Errorf("nil tree: %v", fails)
	}

	corrupt("wrong reported cost", "cost", func(c *tree.Tree) float64 {
		return cost + 1
	})
	corrupt("deflated internal height", "structure", func(c *tree.Tree) float64 {
		// Sinking the root below its children breaks monotonicity.
		c.Nodes[c.Root].Height = 0
		return cost
	})
	corrupt("inflated internal height", "minimal-heights", func(c *tree.Tree) float64 {
		// Raise a non-root internal node to the root's height: still a
		// valid ultrametric feasible tree, but no longer the minimal
		// realization of its topology.
		root := c.Nodes[c.Root]
		target := root.Left
		if c.Nodes[target].Species >= 0 {
			target = root.Right
		}
		delta := root.Height - c.Nodes[target].Height
		if delta <= 0 {
			t.Fatal("test instance has no slack to inflate")
		}
		c.Nodes[target].Height = root.Height
		return cost + delta
	})
	corrupt("relabeled leaf", "leaf-set", func(c *tree.Tree) float64 {
		for i := range c.Nodes {
			if c.Nodes[i].Species == 3 {
				c.Nodes[i].Species = 2 // now species 2 appears twice, 3 never
			}
		}
		return cost
	})

	// Feasibility: shrink the whole tree uniformly — stays a valid
	// ultrametric tree but d_T < M somewhere.
	shrunk := tr.Clone()
	for i := range shrunk.Nodes {
		shrunk.Nodes[i].Height *= 0.5
	}
	fails := CheckTree(m, shrunk, cost/2)
	found := false
	for _, f := range fails {
		if f.Property == "feasible" {
			found = true
		}
	}
	if !found {
		t.Errorf("halved tree must be infeasible, got %v", fails)
	}
}

// TestCheckDecomposition: the compact path's output passes, and a tree
// that separates a compact set fails the clade check.
func TestCheckDecomposition(t *testing.T) {
	m, err := GenerateInstance("perturbed", 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Construct(m, core.DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if fails := CheckDecomposition(m, res.Tree); len(fails) != 0 {
		t.Fatalf("decomposition output rejected: %v", fails)
	}
	if len(res.CompactSets) == 0 {
		t.Skip("instance has no non-trivial compact sets")
	}

	// A caterpillar over species in index order almost surely violates
	// some detected compact set; if not, perturb until it does or accept.
	cat := tree.New(0)
	for s := 1; s < m.Len(); s++ {
		cat = tree.Join(cat, tree.New(s), cat.Height()+1)
	}
	violated := false
	for _, set := range res.CompactSets {
		if cat.CladeCheck(set) != nil {
			violated = true
		}
	}
	if violated {
		if fails := CheckClades(cat, res.CompactSets); len(fails) == 0 {
			t.Error("CheckClades accepted a tree that breaks a compact set")
		}
	}
}

// TestCheckDetectionCompleteness: the paper example's four compact sets
// pass, and dropping any one of them is exactly one compact-complete
// failure.
func TestCheckDetectionCompleteness(t *testing.T) {
	m := loadGolden(t, "pact6.dist")
	sets, err := compact.Find(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 4 {
		t.Fatalf("paper example has %d compact sets, want 4", len(sets))
	}
	if fails := checkDetection(m, sets); len(fails) != 0 {
		t.Fatalf("full family rejected: %v", fails)
	}
	for i := range sets {
		dropped := append(append([]compact.Set(nil), sets[:i]...), sets[i+1:]...)
		fails := checkDetection(m, dropped)
		if len(fails) != 1 || fails[0].Property != "compact-complete" {
			t.Errorf("family without %v: failures %v, want one compact-complete", sets[i], fails)
		}
	}
}

// TestCompactCheckHierarchy: BuildHierarchy output always validates, and a
// hand-corrupted hierarchy does not.
func TestCompactCheckHierarchy(t *testing.T) {
	m, err := GenerateInstance("ultrametric", 9, 5)
	if err != nil {
		t.Fatal(err)
	}
	hier, _, err := compact.BuildHierarchy(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := compact.CheckHierarchy(m, hier); err != nil {
		t.Fatalf("valid hierarchy rejected: %v", err)
	}
	// Drop a child: the partition check must fire.
	if len(hier.Children) < 2 {
		t.Fatal("hierarchy unexpectedly flat")
	}
	hier.Children = hier.Children[1:]
	if err := compact.CheckHierarchy(m, hier); err == nil {
		t.Error("hierarchy with a missing child accepted")
	} else if !strings.Contains(err.Error(), "cover") && !strings.Contains(err.Error(), "missing") {
		t.Errorf("unexpected diagnosis: %v", err)
	}
}

// TestTreeCladeHelpers pins the exported tree helpers the checkers build
// on.
func TestTreeCladeHelpers(t *testing.T) {
	// ((0,1):1, (2,3):2):4
	tr, err := tree.ParseNewick("((a:1,b:1):3,(c:2,d:2):2);", 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	for _, clade := range [][]int{{0, 1}, {2, 3}, {0, 1, 2, 3}, {2}} {
		if tr.CladeCheck(clade) != nil {
			t.Errorf("%v should be a clade", clade)
		}
	}
	for _, not := range [][]int{{0, 2}, {1, 2, 3}, {0, 1, 2}} {
		if tr.CladeCheck(not) == nil {
			t.Errorf("%v should not be a clade", not)
		}
	}
	if id := tr.MRCA([]int{0, 1}); tr.Nodes[id].Height != 1 {
		t.Errorf("MRCA(0,1) height %g, want 1", tr.Nodes[id].Height)
	}
	if id := tr.MRCA([]int{0, 3}); id != tr.Root {
		t.Error("MRCA(0,3) should be the root")
	}
	got := tr.LeavesUnder(tr.MRCA([]int{2, 3}))
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("LeavesUnder = %v, want [2 3]", got)
	}
}
