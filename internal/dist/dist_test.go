package dist

import (
	"context"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"evotree/internal/bb"
	"evotree/internal/core"
	"evotree/internal/matrix"
)

// identity asserts the farm-wide node-accounting identity.
func identity(t *testing.T, s bb.Stats) {
	t.Helper()
	if got, want := s.Generated+s.Roots, s.Expanded+s.Pruned.Total()+s.Completed; got != want {
		t.Errorf("accounting identity broken: Generated+Roots=%d, Expanded+Pruned+Completed=%d (%+v)", got, want, s)
	}
}

// TestSolveMatchesSequential runs the loopback farm on random matrices and
// checks the proven cost against the sequential engine, plus the farm's
// accounting identity and dispatch bookkeeping.
func TestSolveMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 12; i++ {
		n := 4 + rng.Intn(6)
		m := matrix.Random0100(rand.New(rand.NewSource(int64(100+i))), n)
		seq, err := bb.Solve(m, bb.DefaultOptions())
		if err != nil {
			t.Fatalf("sequential: %v", err)
		}
		for _, workers := range []int{1, 3} {
			res, err := Solve(m, Options{Workers: workers, BB: bb.DefaultOptions()})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if !res.Optimal {
				t.Fatalf("n=%d workers=%d: not optimal", n, workers)
			}
			if res.Cost != seq.Cost {
				t.Errorf("n=%d workers=%d: cost %v, sequential %v", n, workers, res.Cost, seq.Cost)
			}
			if res.Tree == nil {
				t.Fatalf("n=%d workers=%d: nil tree", n, workers)
			}
			if err := res.Tree.Validate(1e-9); err != nil {
				t.Errorf("n=%d workers=%d: invalid tree: %v", n, workers, err)
			}
			if got := res.Tree.Cost(); math.Abs(got-res.Cost) > 1e-9*math.Max(1, res.Cost) {
				t.Errorf("n=%d workers=%d: tree cost %v != reported %v", n, workers, got, res.Cost)
			}
			identity(t, res.Stats)
			if res.Farm.Units > 0 && res.Farm.Dispatches == 0 {
				t.Errorf("n=%d workers=%d: %d units but no dispatches", n, workers, res.Farm.Units)
			}
			if res.Farm.Done != res.Farm.Units {
				t.Errorf("n=%d workers=%d: %d of %d units done", n, workers, res.Farm.Done, res.Farm.Units)
			}
			if res.Sched.Dispatches != res.Farm.Dispatches {
				t.Errorf("SchedStats.Dispatches=%d, FarmStats.Dispatches=%d", res.Sched.Dispatches, res.Farm.Dispatches)
			}
		}
	}
}

// TestSolveDecomposeMatchesPipeline checks decompose mode against the
// in-process decomposition pipeline on ultrametric matrices (where the
// decomposition is exact and clades are forced).
func TestSolveDecomposeMatchesPipeline(t *testing.T) {
	for i := 0; i < 8; i++ {
		rng := rand.New(rand.NewSource(int64(300 + i)))
		m := matrix.RandomUltrametric(rng, 5+rng.Intn(6), 100)
		want, err := core.Construct(m, core.DefaultOptions(2))
		if err != nil {
			t.Fatalf("pipeline: %v", err)
		}
		res, err := Solve(m, Options{Workers: 3, Decompose: true, BB: bb.DefaultOptions()})
		if err != nil {
			t.Fatalf("dist decompose: %v", err)
		}
		if math.Abs(res.Cost-want.Cost) > 1e-9*math.Max(1, want.Cost) {
			t.Errorf("seed %d: dist cost %v, pipeline %v", 300+i, res.Cost, want.Cost)
		}
		if err := res.Tree.Validate(1e-9); err != nil {
			t.Errorf("seed %d: invalid tree: %v", 300+i, err)
		}
		identity(t, res.Stats)
		if len(res.CompactSets) == 0 {
			t.Logf("seed %d: no compact sets detected (allowed)", 300+i)
		}
	}
}

// TestDecomposeFarmCountsLikePipeline: a 1-worker decompose farm reports
// the Solutions and UBUpdates of the in-process pipeline, which sums one
// search's counts per subproblem. A worker's best reaches the coordinator
// once — through POST /v1/bound, or with the result when that publish was
// never acknowledged — and each matrix keeps its own count, so no solution
// is counted twice and no matrix resets another's count.
func TestDecomposeFarmCountsLikePipeline(t *testing.T) {
	for seed := int64(7); seed <= 12; seed++ {
		// Three blocks by species index mod 3, as experiments' blockRandom.
		rng := rand.New(rand.NewSource(seed))
		const n = 24
		m := matrix.New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if i%3 == j%3 {
					m.Set(i, j, float64(25+rng.Intn(26)))
				} else {
					m.Set(i, j, float64(60+rng.Intn(16)))
				}
			}
		}
		want, err := core.Construct(m, core.DefaultOptions(1))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(m, Options{Workers: 1, Decompose: true, BB: bb.DefaultOptions()})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost != want.Cost {
			t.Errorf("seed %d: farm cost %v, pipeline %v", seed, res.Cost, want.Cost)
		}
		if res.Stats.Solutions != want.Stats.Solutions || res.Stats.UBUpdates != want.Stats.UBUpdates {
			t.Errorf("seed %d: farm Solutions=%d UBUpdates=%d, pipeline Solutions=%d UBUpdates=%d",
				seed, res.Stats.Solutions, res.Stats.UBUpdates, want.Stats.Solutions, want.Stats.UBUpdates)
		}
	}
}

// TestSolveTrivial covers the n=1 and n=2 corners in both modes.
func TestSolveTrivial(t *testing.T) {
	one, _ := matrix.NewWithNames([]string{"A"})
	two, _ := matrix.NewWithNames([]string{"A", "B"})
	two.Set(0, 1, 4)
	for _, mode := range []bool{false, true} {
		for _, m := range []*matrix.Matrix{one, two} {
			res, err := Solve(m, Options{Workers: 2, Decompose: mode, BB: bb.DefaultOptions()})
			if err != nil {
				t.Fatalf("n=%d decompose=%v: %v", m.Len(), mode, err)
			}
			if res.Tree == nil || !res.Optimal {
				t.Fatalf("n=%d decompose=%v: tree=%v optimal=%v", m.Len(), mode, res.Tree, res.Optimal)
			}
		}
	}
}

// TestSolveCancellation hands the farm an already-cancelled context and
// checks the incumbent comes back non-optimal with the identity intact
// (every sliced unit is abandoned as a budget prune).
func TestSolveCancellation(t *testing.T) {
	m := matrix.Random0100(rand.New(rand.NewSource(9)), 13)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := Options{Workers: 2, BB: bb.DefaultOptions()}
	opt.BB.Ctx = ctx
	res, err := solveFarm(m, opt, 200*time.Microsecond)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if res.Optimal {
		t.Fatalf("expected truncated result")
	}
	if res.Tree == nil {
		t.Fatalf("expected incumbent tree")
	}
	identity(t, res.Stats)
	if math.IsInf(res.OpenLB, 1) {
		t.Errorf("truncated farm should report a finite OpenLB")
	}
}

// TestSolveBudget exhausts a tiny shared MaxNodes budget.
func TestSolveBudget(t *testing.T) {
	m := matrix.Random0100(rand.New(rand.NewSource(10)), 10)
	opt := Options{Workers: 2, BB: bb.DefaultOptions()}
	opt.BB.MaxNodes = 16
	res, err := Solve(m, opt)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if res.Optimal {
		t.Fatalf("expected truncated result under MaxNodes=16")
	}
	identity(t, res.Stats)
}

// TestFarmHonoursPropagate checks that Options.Propagate crosses the
// wire: on an instance where the sequential engine with the propagation
// bound (verify's bbprop) records ultrametric prunes, the workers of a
// farm under bb.StrongOptions record them too — beyond any the
// coordinator's slicer made — and the farm still proves the sequential
// optimum.
func TestFarmHonoursPropagate(t *testing.T) {
	m := matrix.Random0100(rand.New(rand.NewSource(12)), 12)
	ref := bb.DefaultOptions()
	ref.Propagate = true
	seq, err := bb.Solve(m, ref)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Stats.Pruned.Ultrametric == 0 {
		t.Fatal("instance no longer exercises the propagation bound")
	}
	c, err := NewCoordinator(m, Options{Workers: 3, BB: bb.StrongOptions()})
	if err != nil {
		t.Fatal(err)
	}
	sliced := c.masterStats.Pruned.Ultrametric
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errCh := make(chan error, 1)
	go func() { errCh <- RunWorker(ctx, srv.URL, WorkerOptions{Name: "w", Poll: 2 * time.Millisecond}) }()
	res, err := c.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if werr := <-errCh; werr != nil {
		t.Fatalf("worker: %v", werr)
	}
	if res.Cost != seq.Cost || !res.Optimal {
		t.Fatalf("farm cost %v (optimal %v), sequential %v", res.Cost, res.Optimal, seq.Cost)
	}
	if res.Stats.Pruned.Ultrametric <= sliced {
		t.Fatalf("workers recorded no ultrametric prunes (%d farm-wide, %d by the slicer)",
			res.Stats.Pruned.Ultrametric, sliced)
	}
	identity(t, res.Stats)
}

// TestNewCoordinatorRejectsUnsupportedOptions: the farm implements
// neither CollectAll nor a suppressed initial bound, so it refuses them
// instead of ignoring them.
func TestNewCoordinatorRejectsUnsupportedOptions(t *testing.T) {
	m := matrix.Random0100(rand.New(rand.NewSource(13)), 6)
	for name, set := range map[string]func(*bb.Options){
		"CollectAll":  func(o *bb.Options) { o.CollectAll = true },
		"NoInitialUB": func(o *bb.Options) { o.NoInitialUB = true },
	} {
		opt := Options{Workers: 2, BB: bb.DefaultOptions()}
		set(&opt.BB)
		if _, err := NewCoordinator(m, opt); err == nil {
			t.Errorf("NewCoordinator accepted %s", name)
		}
	}
}
