package bb

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"evotree/internal/matrix"
)

func randMatrix(rng *rand.Rand, n int) *matrix.Matrix {
	return matrix.RandomMetric(rng, n, 50, 100)
}

func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(4) // 4..7
		m := randMatrix(rng, n)
		_, want, err := BruteForce(m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(m, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Cost-want) > 1e-9 {
			t.Fatalf("trial %d (n=%d): B&B cost %g, brute force %g\nmatrix:\n%s",
				trial, n, res.Cost, want, m)
		}
		if !res.Optimal {
			t.Fatalf("trial %d: search not marked optimal", trial)
		}
	}
}

func TestSolveOptionCombinationsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	exact := []Options{
		{},
		{UseMaxMin: true},
	}
	heuristic := []Options{
		{UseMaxMin: true, Constraints: Constraints{ThreeThree: true}},
		{Constraints: Constraints{ThreeThree: true}},
		{UseMaxMin: true, Constraints: Constraints{ThreeThree: true, ThreeThreeAll: true}},
	}
	for trial := 0; trial < 15; trial++ {
		n := 5 + rng.Intn(3)
		m := randMatrix(rng, n)
		base, err := Solve(m, exact[0])
		if err != nil {
			t.Fatal(err)
		}
		for vi, opt := range exact[1:] {
			res, err := Solve(m, opt)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(res.Cost-base.Cost) > 1e-9 {
				t.Fatalf("trial %d exact variant %d: cost %g, want %g", trial, vi+1, res.Cost, base.Cost)
			}
		}
		// The 3-3 filters are search-space reductions; they can never
		// invent a cheaper (infeasible) tree, and their result must still
		// be a feasible ultrametric tree.
		for vi, opt := range heuristic {
			res, err := Solve(m, opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost < base.Cost-1e-9 {
				t.Fatalf("trial %d heuristic variant %d: impossible cost %g < optimum %g",
					trial, vi, res.Cost, base.Cost)
			}
			if !res.Tree.Feasible(m, 1e-9) {
				t.Fatalf("trial %d heuristic variant %d: infeasible tree", trial, vi)
			}
		}
	}
}

func TestSolutionIsFeasibleAndUltrametric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(5)
		m := randMatrix(rng, n)
		res, err := Solve(m, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Tree.Validate(1e-9); err != nil {
			t.Fatalf("invalid tree: %v", err)
		}
		if !res.Tree.Feasible(m, 1e-9) {
			t.Fatalf("trial %d: optimal tree violates d_T >= M", trial)
		}
		if !res.Tree.IsUltrametricTree(1e-9) {
			t.Fatalf("trial %d: tree not ultrametric", trial)
		}
		if got := res.Tree.Cost(); math.Abs(got-res.Cost) > 1e-9 {
			t.Fatalf("trial %d: reported cost %g, tree cost %g", trial, res.Cost, got)
		}
		if ls := res.Tree.Leaves(); len(ls) != n {
			t.Fatalf("trial %d: tree has %d leaves, want %d", trial, len(ls), n)
		}
	}
}

func TestUPGMMUpperBoundDominatesOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(4)
		m := randMatrix(rng, n)
		p, err := NewProblem(m, true)
		if err != nil {
			t.Fatal(err)
		}
		ubTree, ub := p.InitialUpperBound()
		if !ubTree.Feasible(m, 1e-9) {
			t.Fatalf("UPGMM tree infeasible")
		}
		res := p.SolveSequential(DefaultOptions())
		if res.Cost > ub+1e-9 {
			t.Fatalf("optimal cost %g exceeds UPGMM bound %g", res.Cost, ub)
		}
	}
}

func TestLowerBoundIsValid(t *testing.T) {
	// Along the insertion order, every prefix's LB must be ≤ the cost of
	// the optimal completion. Verify against brute force on small n.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(2)
		m := randMatrix(rng, n)
		p, err := NewProblem(m, true)
		if err != nil {
			t.Fatal(err)
		}
		// For every node of the full BBT, the minimum complete cost below
		// it must be ≥ its LB.
		var rec func(v *PNode) float64
		rec = func(v *PNode) float64 {
			if v.Complete(p) {
				return v.Cost
			}
			best := math.Inf(1)
			children, _ := p.Expand(v, Constraints{}, math.Inf(1), false, nil)
			for _, ch := range children {
				if c := rec(ch); c < best {
					best = c
				}
			}
			if best < v.LB-1e-9 {
				t.Fatalf("LB %g exceeds best completion %g at K=%d", v.LB, best, v.K)
			}
			return best
		}
		rec(p.Root())
	}
}

func TestCollectAllFindsDistinctOptima(t *testing.T) {
	// An exactly ultrametric matrix with ties often has several optima;
	// at minimum the collected set is non-empty and all costs agree.
	rng := rand.New(rand.NewSource(6))
	m := matrix.RandomUltrametric(rng, 6, 100)
	opt := DefaultOptions()
	opt.CollectAll = true
	res, err := Solve(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trees) == 0 {
		t.Fatal("no optima collected")
	}
	for _, tr := range res.Trees {
		if math.Abs(tr.Cost()-res.Cost) > 1e-9 {
			t.Fatalf("collected tree cost %g, want %g", tr.Cost(), res.Cost)
		}
		if !tr.Feasible(m, 1e-9) {
			t.Fatal("collected tree infeasible")
		}
	}
}

func TestUltrametricInputIsReconstructedAtItsOwnCost(t *testing.T) {
	// For an exactly ultrametric matrix, the MUT realizes d_T == M on the
	// matrix's own hierarchy, so UPGMM is already optimal and the B&B must
	// return the same cost.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		m := matrix.RandomUltrametric(rng, 7, 50)
		p, err := NewProblem(m, true)
		if err != nil {
			t.Fatal(err)
		}
		_, ub := p.InitialUpperBound()
		res := p.SolveSequential(DefaultOptions())
		if math.Abs(res.Cost-ub) > 1e-9 {
			t.Fatalf("ultrametric input: B&B %g, UPGMM %g", res.Cost, ub)
		}
	}
}

func TestMaxNodesCutsSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := randMatrix(rng, 12)
	opt := DefaultOptions()
	opt.MaxNodes = 3
	res, err := Solve(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimal {
		t.Fatal("search of 12 species within 3 expansions cannot be optimal")
	}
	if res.Tree == nil {
		t.Fatal("cut search must still return the incumbent (UPGMM) tree")
	}
}

func TestNewProblemRejectsBadInput(t *testing.T) {
	if _, err := NewProblem(matrix.New(1), true); err == nil {
		t.Fatal("want error for n=1")
	}
	if _, err := NewProblem(matrix.New(MaxSpecies+1), true); err == nil {
		t.Fatal("want error for too many species")
	}
	bad := matrix.New(3)
	bad.Set(0, 1, -4)
	if _, err := NewProblem(bad, true); err == nil {
		t.Fatal("want error for negative distance")
	}
}

func TestCountTopologies(t *testing.T) {
	cases := map[int]float64{2: 1, 3: 3, 4: 15, 5: 105, 6: 945}
	for n, want := range cases {
		if got := CountTopologies(n); got != want {
			t.Errorf("A(%d) = %g, want %g", n, got, want)
		}
	}
	if a := CountTopologies(20); a <= 1e21 {
		t.Errorf("A(20) = %g, want > 10^21 (paper's claim)", a)
	}
	if a := CountTopologies(25); a <= 1e29 {
		t.Errorf("A(25) = %g, want > 10^29", a)
	}
	if a := CountTopologies(30); a <= 1e37 {
		t.Errorf("A(30) = %g, want > 10^37", a)
	}
}

func TestExpandChildCountsAndOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randMatrix(rng, 8)
	p, err := NewProblem(m, true)
	if err != nil {
		t.Fatal(err)
	}
	v := p.Root()
	for !v.Complete(p) {
		children, _ := p.Expand(v, Constraints{}, math.Inf(1), false, nil)
		if len(children) != v.Positions() {
			t.Fatalf("K=%d: %d children, want %d", v.K, len(children), v.Positions())
		}
		for i := 1; i < len(children); i++ {
			if children[i].LB < children[i-1].LB {
				t.Fatalf("children not sorted by LB")
			}
		}
		for _, ch := range children {
			if ch.K != v.K+1 {
				t.Fatalf("child K=%d, want %d", ch.K, v.K+1)
			}
			if ch.Cost < v.Cost-1e-9 {
				t.Fatalf("child cost %g below parent cost %g", ch.Cost, v.Cost)
			}
			if ch.LB < v.LB-1e-9 {
				t.Fatalf("child LB %g below parent LB %g (LB must be monotone)", ch.LB, v.LB)
			}
		}
		v = children[0]
	}
}

func TestPartialCostsMatchTreeMaterialization(t *testing.T) {
	// Property: for random insertion sequences, the incrementally
	// maintained Cost equals tree.AssignMinHeights on the materialized
	// topology.
	rng := rand.New(rand.NewSource(10))
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(6)
		m := randMatrix(r, n)
		p, err := NewProblem(m, r.Intn(2) == 0)
		if err != nil {
			return false
		}
		v := p.Root()
		for !v.Complete(p) {
			children, _ := p.Expand(v, Constraints{}, math.Inf(1), false, nil)
			v = children[r.Intn(len(children))]
			tt := v.Tree(p)
			perm := p.perm
			pm := make([][]float64, n)
			for i := range pm {
				pm[i] = make([]float64, n)
			}
			// Build original-label matrix view for AssignMinHeights.
			mv := tt.Clone()
			got := mv.AssignMinHeights(origView{m: m})
			_ = perm
			if math.Abs(got-v.Cost) > 1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

type origView struct{ m *matrix.Matrix }

func (v origView) Len() int            { return v.m.Len() }
func (v origView) At(i, j int) float64 { return v.m.At(i, j) }

func TestBestFirstMatchesDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		n := 5 + rng.Intn(5)
		m := randMatrix(rng, n)
		p, err := NewProblem(m, true)
		if err != nil {
			t.Fatal(err)
		}
		dfs := p.SolveSequential(DefaultOptions())
		bf := p.SolveBestFirst(DefaultOptions())
		if math.Abs(dfs.Cost-bf.Cost) > 1e-9 {
			t.Fatalf("trial %d: DFS %g, best-first %g", trial, dfs.Cost, bf.Cost)
		}
		if !bf.Tree.Feasible(m, 1e-9) {
			t.Fatalf("trial %d: best-first tree infeasible", trial)
		}
		// Best-first never expands a node whose LB exceeds the optimum, so
		// it expands no more nodes than any exact strategy that must close
		// the whole tree... in particular, never more than DFS plus the
		// frontier slack of equal-LB nodes. Check the strong one-sided
		// bound that holds with distinct bounds on random data.
		if bf.Stats.Expanded > dfs.Stats.Expanded {
			t.Logf("trial %d: best-first expanded %d > DFS %d (equal-LB ties)",
				trial, bf.Stats.Expanded, dfs.Stats.Expanded)
		}
	}
}

func TestBestFirstMaxNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := matrix.Random0100(rng, 14)
	opt := DefaultOptions()
	opt.MaxNodes = 10
	p, err := NewProblem(m, true)
	if err != nil {
		t.Fatal(err)
	}
	res := p.SolveBestFirst(opt)
	if res.Optimal {
		t.Fatal("capped best-first cannot be optimal")
	}
	if res.Tree == nil {
		t.Fatal("capped best-first must return the incumbent")
	}
}

func TestBestFirstCollectAll(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := matrix.RandomUltrametric(rng, 6, 90)
	opt := DefaultOptions()
	opt.CollectAll = true
	p, err := NewProblem(m, true)
	if err != nil {
		t.Fatal(err)
	}
	dfs := p.SolveSequential(opt)
	bf := p.SolveBestFirst(opt)
	if len(bf.Trees) != len(dfs.Trees) {
		t.Fatalf("best-first found %d optima, DFS %d", len(bf.Trees), len(dfs.Trees))
	}
}

// TestTwoSpeciesWithoutSeed: with n=2 the root is already the only
// topology, so a search started from NoInitialUB must hand it back as its
// solution in both sequential drivers instead of returning no tree.
func TestTwoSpeciesWithoutSeed(t *testing.T) {
	m := matrix.New(2)
	m.Set(0, 1, 4)
	p, err := NewProblem(m, true)
	if err != nil {
		t.Fatal(err)
	}
	want := p.SolveSequential(DefaultOptions()).Cost // the seeded search
	opt := DefaultOptions()
	opt.NoInitialUB = true
	for name, res := range map[string]*Result{"dfs": p.SolveSequential(opt), "best-first": p.SolveBestFirst(opt)} {
		if res.Tree == nil || res.Cost != want || !res.Optimal {
			t.Fatalf("%s: tree %v cost %v optimal %v, want the cherry at cost %v", name, res.Tree, res.Cost, res.Optimal, want)
		}
	}
}
