package verify

import (
	"fmt"
	"math"
	"sort"

	"evotree/internal/compact"
	"evotree/internal/matrix"
	"evotree/internal/tree"
)

// CheckTree runs every tree-level invariant the paper's model demands on a
// constructed tree and returns the list of violations (empty = clean):
//
//   - structure: parent/child links, binary internal nodes, height
//     monotonicity (tree.Validate);
//   - leaf-set: the leaves are exactly species 0..n−1, each once;
//   - ultrametric: all root-to-leaf path lengths agree;
//   - feasible: d_T(i,j) ≥ M[i,j] for every pair (Definition 8);
//   - cost: reportedCost equals the edge-weight sum AND the h(root) +
//     Σ h(internal) closed form — the two ways the codebase computes ω(T);
//   - minimal-heights: re-deriving minimal heights for the same topology
//     does not lower the cost, i.e. the engine returned the tight
//     realization, not just a feasible one.
//
// reportedCost is the cost the engine claimed for t.
func CheckTree(m *matrix.Matrix, t *tree.Tree, reportedCost float64) []Failure {
	var fails []Failure
	add := func(prop, format string, args ...any) {
		fails = append(fails, Failure{Property: prop, Detail: fmt.Sprintf(format, args...)})
	}
	if t == nil {
		add("structure", "engine returned a nil tree")
		return fails
	}
	tol := Tol(m)
	if err := t.Validate(tol); err != nil {
		add("structure", "%v", err)
		return fails // the remaining checks assume a well-formed tree
	}
	if err := checkLeafSet(m.Len(), t); err != nil {
		add("leaf-set", "%v", err)
		return fails
	}
	if !t.IsUltrametricTree(tol) {
		add("ultrametric", "root-to-leaf path lengths differ by more than %g", tol)
	}
	if !t.Feasible(m, tol) {
		i, j, short := worstInfeasiblePair(m, t)
		add("feasible", "d_T(%d,%d) = %g < M = %g", i, j, short, m.At(i, j))
	}
	edgeSum := t.Cost()
	closed := closedFormCost(t)
	if !costsAgree(edgeSum, closed, tol) {
		add("cost", "edge-weight sum %g disagrees with h(root)+Σh(internal) = %g", edgeSum, closed)
	}
	if !costsAgree(reportedCost, edgeSum, tol) {
		add("cost", "engine reported cost %g but the tree weighs %g", reportedCost, edgeSum)
	}
	minimal := t.Clone()
	if mc := minimal.AssignMinHeights(m); mc < edgeSum-tol {
		add("minimal-heights", "tree costs %g but its topology admits %g", edgeSum, mc)
	}
	return fails
}

// checkLeafSet verifies the tree's leaves are exactly species 0..n−1.
func checkLeafSet(n int, t *tree.Tree) error {
	leaves := append([]int(nil), t.Leaves()...)
	sort.Ints(leaves)
	if len(leaves) != n {
		return fmt.Errorf("%d leaves, want %d", len(leaves), n)
	}
	for i, s := range leaves {
		if s != i {
			return fmt.Errorf("leaf species %v are not 0..%d", leaves, n-1)
		}
	}
	return nil
}

// closedFormCost computes ω(T) = h(root) + Σ h(v) over internal nodes —
// the identity the tree package's doc comment states; checking it against
// the edge-weight sum catches height/parent-link inconsistencies that each
// formula alone would miss.
func closedFormCost(t *tree.Tree) float64 {
	sum := t.Nodes[t.Root].Height
	for i := range t.Nodes {
		if t.Nodes[i].Species < 0 {
			sum += t.Nodes[i].Height
		}
	}
	return sum
}

// worstInfeasiblePair returns the species pair with the largest feasibility
// deficit, for diagnostics.
func worstInfeasiblePair(m *matrix.Matrix, t *tree.Tree) (int, int, float64) {
	leaves := t.Leaves()
	wi, wj, wd := -1, -1, math.Inf(1)
	worst := 0.0
	for x := 0; x < len(leaves); x++ {
		for y := x + 1; y < len(leaves); y++ {
			i, j := leaves[x], leaves[y]
			if deficit := m.At(i, j) - t.Dist(i, j); deficit > worst {
				worst, wi, wj, wd = deficit, i, j, t.Dist(i, j)
			}
		}
	}
	return wi, wj, wd
}

// CheckClades verifies the paper's relation-structure theorem on a
// decomposition result: every detected compact set appears as a clade of
// the returned tree.
func CheckClades(t *tree.Tree, sets []compact.Set) []Failure {
	var fails []Failure
	for _, s := range sets {
		if err := t.CladeCheck(s); err != nil {
			fails = append(fails, Failure{Property: "compact-clade", Detail: err.Error()})
		}
	}
	return fails
}

// CheckDecomposition re-detects the compact sets of m, checks the family
// (see checkDetection) and the laminar hierarchy invariants, and checks
// every set is a clade of t. Used for engines that run the compact-set
// path.
func CheckDecomposition(m *matrix.Matrix, t *tree.Tree) []Failure {
	hier, sets, err := compact.BuildHierarchy(m)
	if err != nil {
		return []Failure{{Property: "compact-detect", Detail: err.Error()}}
	}
	fails := checkDetection(m, sets)
	if err := compact.CheckHierarchy(m, hier); err != nil {
		fails = append(fails, Failure{Property: "compact-hierarchy", Detail: err.Error()})
	}
	return append(fails, CheckClades(t, sets)...)
}

// detectionCheckMax is the largest species count at which checkDetection
// runs the threshold detector, which is O(n⁴).
const detectionCheckMax = 64

// checkDetection checks a detected compact-set family: it must be laminar
// and, up to detectionCheckMax species, equal as a family of sets to what
// the independent threshold detector finds. CheckHierarchy proves each
// flagged set compact; the comparison proves none is missing.
func checkDetection(m *matrix.Matrix, sets []compact.Set) []Failure {
	var fails []Failure
	if !compact.IsLaminar(sets) {
		fails = append(fails, Failure{Property: "compact-laminar",
			Detail: fmt.Sprintf("compact sets %v are not laminar", sets)})
	}
	if m.Len() > detectionCheckMax {
		return fails
	}
	want, err := compact.FindByThreshold(m)
	if err != nil {
		return append(fails, Failure{Property: "compact-detect", Detail: err.Error()})
	}
	missing, extra := setDifference(want, sets), setDifference(sets, want)
	if len(missing) > 0 || len(extra) > 0 {
		fails = append(fails, Failure{Property: "compact-complete", Detail: fmt.Sprintf(
			"detected family misses %v and has extra %v against the threshold detector", missing, extra)})
	}
	return fails
}

// setDifference returns the sets of a that are not in b. A Set is sorted,
// so equal sets print alike.
func setDifference(a, b []compact.Set) []compact.Set {
	inB := make(map[string]bool, len(b))
	for _, s := range b {
		inB[fmt.Sprint(s)] = true
	}
	var out []compact.Set
	for _, s := range a {
		if !inB[fmt.Sprint(s)] {
			out = append(out, s)
		}
	}
	return out
}
