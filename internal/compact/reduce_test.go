package compact

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"evotree/internal/matrix"
	"evotree/internal/tree"
	"evotree/internal/upgma"
)

func TestReduceOnLeafFails(t *testing.T) {
	m := paperExample(t)
	leaf := &Hierarchy{Members: []int{0}}
	if _, _, err := Reduce(m, leaf, Maximum); err == nil {
		t.Fatal("want error for Reduce on a leaf group")
	}
}

func TestGroupName(t *testing.T) {
	m := paperExample(t)
	leaf := &Hierarchy{Members: []int{2}}
	if got := GroupName(m, leaf); got != "S3" {
		t.Fatalf("leaf name %q", got)
	}
	grp := &Hierarchy{Members: []int{0, 2}}
	if got := GroupName(m, grp); got != "C{S1,S3}" {
		t.Fatalf("group name %q", got)
	}
}

// pairAndSingleton returns the hierarchy {{0 1} 2} and its internal
// child {0 1}.
func pairAndSingleton() (root, pair *Hierarchy) {
	pair = &Hierarchy{Members: []int{0, 1}, Children: []*Hierarchy{{Members: []int{0}}, {Members: []int{1}}}}
	return &Hierarchy{Members: []int{0, 1, 2}, Children: []*Hierarchy{pair, {Members: []int{2}}}}, pair
}

func TestGraftErrors(t *testing.T) {
	h, child := pairAndSingleton()
	groupTree := tree.Join(tree.New(0), tree.New(1), 5)
	// No group tree for the root, then none (and a nil one) for the
	// internal child.
	if _, err := Assemble(h, nil); err == nil {
		t.Fatal("want error for a missing root group tree")
	}
	if _, err := Assemble(h, map[*Hierarchy]*tree.Tree{h: groupTree}); err == nil {
		t.Fatal("want error for a missing child group tree")
	}
	if _, err := Assemble(h, map[*Hierarchy]*tree.Tree{h: groupTree, child: nil}); err == nil {
		t.Fatal("want error for a nil child group tree")
	}
	// Proper assembly.
	sub := tree.Join(tree.New(0), tree.New(1), 2)
	out, err := Assemble(h, map[*Hierarchy]*tree.Tree{h: groupTree, child: sub})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
	if got := out.LeafCount(); got != 3 {
		t.Fatalf("%d leaves", got)
	}
	// Species labels come from the hierarchy: {0,1} from the child's
	// group tree, 2 from the singleton child.
	leaves := out.Leaves()
	seen := map[int]bool{}
	for _, l := range leaves {
		seen[l] = true
	}
	if !seen[0] || !seen[1] || !seen[2] {
		t.Fatalf("leaves = %v", leaves)
	}
	// A one-species hierarchy is its leaf, with no group tree.
	leaf, err := Assemble(&Hierarchy{Members: []int{4}}, nil)
	if err != nil || leaf.LeafCount() != 1 || leaf.Leaves()[0] != 4 {
		t.Fatalf("one-species assembly = %v, %v", leaf, err)
	}
}

func TestGraftClampsOverTallSubtrees(t *testing.T) {
	// A subtree taller than its attachment parent (possible with Minimum
	// or Average reductions) is clamped, keeping the tree valid.
	h, child := pairAndSingleton()
	groupTree := tree.Join(tree.New(0), tree.New(1), 3)
	tall := tree.Join(tree.New(0), tree.New(1), 10) // taller than height 3
	out, err := Assemble(h, map[*Hierarchy]*tree.Tree{h: groupTree, child: tall})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(1e-9); err != nil {
		t.Fatalf("clamped assembly invalid: %v", err)
	}
	if out.Height() != 3 {
		t.Fatalf("root height %g, want 3", out.Height())
	}
}

func TestEndToEndDecompositionMatchesManualAssembly(t *testing.T) {
	// Solve the paper example manually through Reduce/Assemble with UPGMM
	// as the subproblem solver and check feasibility and relation
	// preservation — the same path core.Construct automates.
	m := paperExample(t)
	h, sets, err := BuildHierarchy(m)
	if err != nil {
		t.Fatal(err)
	}
	trees := map[*Hierarchy]*tree.Tree{}
	for _, g := range h.PostOrder() {
		small, _, err := Reduce(m, g, Maximum)
		if err != nil {
			t.Fatal(err)
		}
		trees[g] = upgma.Build(small, upgma.Maximum)
	}
	out, err := Assemble(h, trees)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
	if !out.Feasible(m, 1e-9) {
		t.Fatal("maximum-reduction assembly must be feasible")
	}
	for _, s := range sets {
		// Each compact set must be a clade: its LCA holds exactly its
		// members.
		lca := out.LCA(s[0], s[1])
		for _, v := range s[2:] {
			l2 := out.LCA(s[0], v)
			if out.Nodes[l2].Height > out.Nodes[lca].Height {
				lca = l2
			}
		}
		count := 0
		var walk func(id int)
		walk = func(id int) {
			n := out.Nodes[id]
			if n.Species >= 0 {
				count++
				return
			}
			walk(n.Left)
			walk(n.Right)
		}
		walk(lca)
		if count != len(s) {
			t.Fatalf("compact set %v not a clade (%d leaves under LCA)", s, count)
		}
	}
}

func TestReductionStringer(t *testing.T) {
	if Maximum.String() != "maximum" || Minimum.String() != "minimum" || Average.String() != "average" {
		t.Fatal("Reduction names wrong")
	}
	if !strings.Contains(Reduction(99).String(), "99") {
		t.Fatal("unknown reduction should show its value")
	}
}

func TestGroupDistanceRandomConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m := matrix.RandomMetric(rng, 10, 50, 100)
	a, b := []int{0, 3, 5}, []int{1, 7}
	maxD := GroupDistance(m, a, b, Maximum)
	minD := GroupDistance(m, a, b, Minimum)
	avgD := GroupDistance(m, a, b, Average)
	if !(minD <= avgD && avgD <= maxD) {
		t.Fatalf("min %g avg %g max %g out of order", minD, avgD, maxD)
	}
	if math.IsNaN(avgD) {
		t.Fatal("NaN average")
	}
}
