// Integration tests spanning the whole pipeline: sequences → FASTA →
// distance matrix → compact sets → (parallel) branch-and-bound → merged
// tree → Newick, plus the three-engine cost agreement (sequential,
// goroutine-parallel, virtual cluster).
package evotree_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"evotree"
	"evotree/internal/bb"
	"evotree/internal/cluster"
	"evotree/internal/core"
	"evotree/internal/matrix"
	"evotree/internal/pbb"
	"evotree/internal/seqsim"
)

func TestPipelineSequencesToTree(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	ds, err := seqsim.Generate(rng, seqsim.Params{Species: 14, SeqLen: 200, Rate: 0.8})
	if err != nil {
		t.Fatal(err)
	}

	// FASTA round trip reproduces the distance matrix exactly.
	var buf bytes.Buffer
	if err := seqsim.WriteFASTA(&buf, ds.Records()); err != nil {
		t.Fatal(err)
	}
	records, err := seqsim.ReadFASTA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m, err := seqsim.MatrixFromSequences(records)
	if err != nil {
		t.Fatal(err)
	}
	if m.String() != ds.Matrix.String() {
		t.Fatal("FASTA round trip changed the matrix")
	}

	// Construct with the paper's technique.
	res, err := core.Construct(m, core.DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Tree.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
	if !res.Tree.Feasible(m, 1e-9) {
		t.Fatal("merged tree infeasible")
	}
	if err := core.RelationPreserved(res.Tree, res.CompactSets); err != nil {
		t.Fatal(err)
	}

	// Feasibility already makes the tree's cophenetic distances dominate
	// the input; on clock-like data they must also correlate with it.
	if corr := copheneticCorrelation(m, res.Tree.Dist); corr < 0.5 {
		t.Fatalf("cophenetic correlation %g suspiciously low", corr)
	}

	// Newick round trip preserves cost and leaf count.
	back, err := evotree.ParseNewick(res.Tree.Newick(), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if back.LeafCount() != 14 || math.Abs(back.Cost()-res.Cost) > 1e-6*res.Cost {
		t.Fatalf("Newick round trip: %d leaves, cost %g vs %g",
			back.LeafCount(), back.Cost(), res.Cost)
	}
}

// copheneticCorrelation is the Pearson correlation between the
// off-diagonal entries of m and the tree distances dist over the same
// pairs: how well a tree fits the data it was built from.
func copheneticCorrelation(m *matrix.Matrix, dist func(i, j int) float64) float64 {
	var xs, ys []float64
	for i := 0; i < m.Len(); i++ {
		for j := i + 1; j < m.Len(); j++ {
			xs = append(xs, m.At(i, j))
			ys = append(ys, dist(i, j))
		}
	}
	mean := func(v []float64) float64 {
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	mx, my := mean(xs), mean(ys)
	var sxx, syy, sxy float64
	for k := range xs {
		dx, dy := xs[k]-mx, ys[k]-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	return sxy / math.Sqrt(sxx*syy)
}

func TestThreeEnginesAgree(t *testing.T) {
	// The sequential solver, the goroutine engine and the virtual cluster
	// replay the same search and must agree on the optimum.
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 5; trial++ {
		var m *matrix.Matrix
		if trial%2 == 0 {
			m = matrix.Random0100(rng, 9+trial)
		} else {
			m = matrix.PerturbedUltrametric(rng, 9+trial, 100, 0.2)
		}
		seq, err := bb.Solve(m, bb.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		par, err := pbb.Solve(m, pbb.DefaultOptions(5))
		if err != nil {
			t.Fatal(err)
		}
		sim, err := cluster.Simulate(m, cluster.ClusterConfig(7))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(seq.Cost-par.Cost) > 1e-9 || math.Abs(seq.Cost-sim.Cost) > 1e-9 {
			t.Fatalf("trial %d: engines disagree: bb %g, pbb %g, cluster %g",
				trial, seq.Cost, par.Cost, sim.Cost)
		}
	}
}

func TestDecompositionScalesWhereExactCannot(t *testing.T) {
	// A 40-species blocked instance is far beyond any exact search, but
	// the decomposition handles it because every block is small. This is
	// the paper's whole point.
	rng := rand.New(rand.NewSource(102))
	n := 40
	m := matrix.New(n)
	group := make([]int, n)
	for i := range group {
		group[i] = i / 8 // five blocks of eight
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if group[i] == group[j] {
				m.Set(i, j, float64(25+rng.Intn(26)))
			} else {
				m.Set(i, j, float64(60+rng.Intn(16)))
			}
		}
	}
	opt := core.DefaultOptions(4)
	opt.BB.MaxNodes = 500_000
	res, err := core.Construct(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Tree.Leaves()); got != n {
		t.Fatalf("%d leaves", got)
	}
	if !res.Tree.Feasible(m, 1e-9) {
		t.Fatal("infeasible")
	}
	if len(res.CompactSets) < 5 {
		t.Fatalf("expected ≥ 5 compact sets (the blocks), got %d", len(res.CompactSets))
	}
	if err := core.RelationPreserved(res.Tree, res.CompactSets); err != nil {
		t.Fatal(err)
	}
}

func TestExactSearchRefusesOversizedInput(t *testing.T) {
	m := matrix.New(70)
	if _, err := bb.Solve(m, bb.DefaultOptions()); err == nil {
		t.Fatal("want error beyond MaxSpecies")
	}
}
