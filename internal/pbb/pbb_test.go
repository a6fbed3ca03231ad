package pbb

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"evotree/internal/bb"
	"evotree/internal/matrix"
	"evotree/internal/tree"
)

func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 12; trial++ {
		n := 5 + rng.Intn(5)
		m := matrix.RandomMetric(rng, n, 50, 100)
		seq, err := bb.Solve(m, bb.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 7} {
			res, err := Solve(m, DefaultOptions(workers))
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(res.Cost-seq.Cost) > 1e-9 {
				t.Fatalf("trial %d workers %d: parallel cost %g, sequential %g",
					trial, workers, res.Cost, seq.Cost)
			}
			if res.Tree == nil {
				t.Fatalf("trial %d workers %d: nil tree", trial, workers)
			}
			if err := res.Tree.Validate(1e-9); err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			if !res.Tree.Feasible(m, 1e-9) {
				t.Fatalf("trial %d workers %d: infeasible tree", trial, workers)
			}
			if got := res.Tree.Cost(); math.Abs(got-res.Cost) > 1e-9 {
				t.Fatalf("trial %d workers %d: tree cost %g, reported %g",
					trial, workers, got, res.Cost)
			}
		}
	}
}

func TestParallelTinyInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{2, 3, 4} {
		m := matrix.RandomMetric(rng, n, 50, 100)
		res, err := Solve(m, DefaultOptions(8))
		if err != nil {
			t.Fatal(err)
		}
		seq, err := bb.Solve(m, bb.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Cost-seq.Cost) > 1e-9 {
			t.Fatalf("n=%d: parallel %g, sequential %g", n, res.Cost, seq.Cost)
		}
	}
}

func TestParallelCollectAll(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := matrix.RandomUltrametric(rng, 7, 60)
	opt := DefaultOptions(4)
	opt.CollectAll = true
	res, err := Solve(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	seqOpt := bb.DefaultOptions()
	seqOpt.CollectAll = true
	seq, err := bb.Solve(m, seqOpt)
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
	}
	if math.Abs(res.Cost-seq.Cost) > 1e-9 {
		t.Fatalf("parallel %g, sequential %g", res.Cost, seq.Cost)
	}
}

func TestParallelWithThreeThree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 6; trial++ {
		n := 6 + rng.Intn(3)
		m := matrix.PerturbedUltrametric(rng, n, 100, 0.05)
		exact, err := Solve(m, DefaultOptions(4))
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Options: bb.PaperOptions(), Workers: 4, InitialFanout: 2}
		with, err := Solve(m, opt)
		if err != nil {
			t.Fatal(err)
		}
		if with.Cost < exact.Cost-1e-9 {
			t.Fatalf("3-3 produced impossible cost %g < %g", with.Cost, exact.Cost)
		}
		if !with.Tree.Feasible(m, 1e-9) {
			t.Fatal("3-3 tree infeasible")
		}
	}
}

func TestWorkerStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	m := matrix.RandomMetric(rng, 9, 50, 100)
	res, err := Solve(m, DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	var sum bb.Stats
	for _, ws := range res.WorkerStats {
		sum.Add(ws)
	}
	if sum.Expanded == 0 && res.MasterNodes > 0 {
		t.Fatal("workers expanded nothing despite dispatched subproblems")
	}
	if res.Stats.Expanded < sum.Expanded {
		t.Fatal("aggregate stats missing worker work")
	}
}

func TestCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	m := matrix.Random0100(rng, 16) // large enough to take a while
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the search must return promptly
	opt := DefaultOptions(4)
	opt.Ctx = ctx
	done := make(chan *Result, 1)
	go func() {
		res, err := Solve(m, opt)
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	select {
	case res := <-done:
		if res.Optimal {
			t.Fatal("cancelled search must not claim optimality")
		}
		if res.Tree == nil {
			t.Fatal("cancelled search must return the incumbent")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled search did not terminate")
	}
}

func TestSequentialCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	m := matrix.Random0100(rng, 18)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := bb.DefaultOptions()
	opt.Ctx = ctx
	res, err := bb.Solve(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimal {
		t.Fatal("cancelled sequential search must not claim optimality")
	}
}

func TestCollectAllFindsSameOptimaSetAsSequential(t *testing.T) {
	// With CollectAll, pruning keeps lb == ub nodes alive, so the set of
	// optima must not depend on worker count or on UB arrival order.
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 5; trial++ {
		m := matrix.RandomUltrametric(rng, 6+trial%2, 80)
		seqOpt := bb.DefaultOptions()
		seqOpt.CollectAll = true
		seq, err := bb.Solve(m, seqOpt)
		if err != nil {
			t.Fatal(err)
		}
		parOpt := DefaultOptions(4)
		parOpt.CollectAll = true
		par, err := Solve(m, parOpt)
		if err != nil {
			t.Fatal(err)
		}
		seqSet := canonTrees(seq.Trees)
		parSet := canonTrees(par.Trees)
		if len(seqSet) != len(parSet) {
			t.Fatalf("trial %d: sequential %d optima, parallel %d",
				trial, len(seqSet), len(parSet))
		}
		for k := range seqSet {
			if !parSet[k] {
				t.Fatalf("trial %d: optimum missing from parallel set", trial)
			}
		}
	}
}

// canonTrees canonicalizes trees by their clade sets.
// TestCollectAllReturnsEachOptimumOnce: under CollectAll, bb and pbb
// return every optimal topology exactly once. The UPGMM seed heads the
// list and the search finds its topology again, so the incumbent must
// not collect it twice. Two trees with the same clade set are at
// Robinson–Foulds distance 0. The distances are integers, so ties are
// exact and the count must equal exhaustive enumeration's.
func TestCollectAllReturnsEachOptimumOnce(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		m := matrix.RandomMetric(rand.New(rand.NewSource(seed)), 5+int(seed%4), 1, 4)
		want := countOptima(t, m)
		seqOpt := bb.DefaultOptions()
		seqOpt.CollectAll = true
		seq, err := bb.Solve(m, seqOpt)
		if err != nil {
			t.Fatal(err)
		}
		parOpt := DefaultOptions(2)
		parOpt.CollectAll = true
		par, err := Solve(m, parOpt)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []struct {
			engine string
			trees  []*tree.Tree
		}{{"bb", seq.Trees}, {"pbb", par.Trees}} {
			if distinct := len(canonTrees(got.trees)); distinct != len(got.trees) {
				t.Errorf("seed %d: %s returned %d trees, only %d distinct topologies",
					seed, got.engine, len(got.trees), distinct)
			}
			if len(got.trees) != want {
				t.Errorf("seed %d: %s returned %d trees, enumeration finds %d optima",
					seed, got.engine, len(got.trees), want)
			}
		}
	}
}

// countOptima enumerates every topology of m with Problem.Child and
// counts those at the minimum cost.
func countOptima(t *testing.T, m *matrix.Matrix) int {
	t.Helper()
	p, err := bb.NewProblem(m, false)
	if err != nil {
		t.Fatal(err)
	}
	np := p.NewPool()
	best, count := math.Inf(1), 0
	var rec func(v *bb.PNode)
	rec = func(v *bb.PNode) {
		defer np.Put(v)
		if v.Complete(p) {
			switch {
			case v.Cost < best:
				best, count = v.Cost, 1
			case v.Cost == best:
				count++
			}
			return
		}
		for pos := 0; pos < v.Positions(); pos++ {
			c, err := p.Child(v, pos, np)
			if err != nil {
				t.Fatal(err)
			}
			rec(c)
		}
	}
	rec(p.Root())
	return count
}

func canonTrees(trees []*tree.Tree) map[string]bool {
	out := map[string]bool{}
	for _, tr := range trees {
		clades := make([]string, 0, 8)
		for c := range tr.CladeSet() {
			clades = append(clades, c)
		}
		sort.Strings(clades)
		out[strings.Join(clades, "|")] = true
	}
	return out
}

func TestMaxNodesBudgetShared(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	m := matrix.Random0100(rng, 16)
	opt := DefaultOptions(4)
	opt.MaxNodes = 50
	res, err := Solve(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimal {
		t.Fatal("budgeted search on a hard instance cannot be optimal")
	}
	// The budget is approximate (workers race on the last few units) but
	// must be within one batch per worker of the cap.
	if res.Stats.Expanded > opt.MaxNodes+int64(4*2) {
		t.Fatalf("expanded %d, budget %d", res.Stats.Expanded, opt.MaxNodes)
	}
	if res.Tree == nil {
		t.Fatal("budgeted search must return the incumbent")
	}
}

func TestGlobalPoolSeesTrafficOnHardInstances(t *testing.T) {
	// On instances with real work and several workers, the two-level load
	// balancer must actually move subproblems: the global pool sees puts
	// (donations) and gets (refills) beyond the initial dispatch share.
	rng := rand.New(rand.NewSource(29))
	moved := false
	for trial := 0; trial < 4 && !moved; trial++ {
		m := matrix.Random0100(rng, 13)
		res, err := Solve(m, DefaultOptions(4))
		if err != nil {
			t.Fatal(err)
		}
		if res.PoolGets > 0 && res.PoolPuts > 0 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("no global-pool traffic across four hard instances")
	}
}
