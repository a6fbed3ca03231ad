package dist

import (
	"context"
	"math"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"evotree/internal/bb"
	"evotree/internal/matrix"
	"evotree/internal/obs"
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
		}
	}
}

// TestFarmCountsLikeSequential: a 1-worker farm reports the Solutions
// and UBUpdates of bb.Solve. A worker's best reaches the coordinator once
// — through POST /v1/bound, or with the result when that publish was
// never acknowledged — so no solution is counted twice.
func TestFarmCountsLikeSequential(t *testing.T) {
	for i := 0; i < 20; i++ {
		n := 6 + i%6
		rng := rand.New(rand.NewSource(int64(200 + i)))
		for _, m := range []*matrix.Matrix{matrix.Random0100(rng, n), matrix.RandomMetric(rng, n, 1, 4)} {
			want, err := bb.Solve(m, bb.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			res, err := Solve(m, Options{Workers: 1, BB: bb.DefaultOptions()})
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost != want.Cost {
				t.Errorf("i=%d n=%d: farm cost %v, sequential %v", i, n, res.Cost, want.Cost)
			}
			if res.Stats.Solutions != want.Stats.Solutions || res.Stats.UBUpdates != want.Stats.UBUpdates {
				t.Errorf("i=%d n=%d: farm Solutions=%d UBUpdates=%d, sequential Solutions=%d UBUpdates=%d",
					i, n, res.Stats.Solutions, res.Stats.UBUpdates, want.Stats.Solutions, want.Stats.UBUpdates)
			}
		}
	}
}

// TestSolveTrivial covers the n=1 and n=2 corners: a 1-species input
// returns its leaf without a search.
func TestSolveTrivial(t *testing.T) {
	one, _ := matrix.NewWithNames([]string{"A"})
	two, _ := matrix.NewWithNames([]string{"A", "B"})
	two.Set(0, 1, 4)
	for _, m := range []*matrix.Matrix{one, two} {
		res, err := Solve(m, Options{Workers: 2, BB: bb.DefaultOptions()})
		if err != nil {
			t.Fatalf("n=%d: %v", m.Len(), err)
		}
		if res.Tree == nil || !res.Optimal {
			t.Fatalf("n=%d: tree=%v optimal=%v", m.Len(), res.Tree, res.Optimal)
		}
	}
}

// TestFarmReportsSearchConfig: the coordinator opens its search as bb and
// pbb do, so a probe sees ProblemStart, SearchConfig and SeedBound in that
// order, and SearchConfig names the rule set bb.Solve names.
func TestFarmReportsSearchConfig(t *testing.T) {
	m := matrix.Random0100(rand.New(rand.NewSource(14)), 8)
	for name, options := range map[string]func() bb.Options{
		"DefaultOptions": bb.DefaultOptions,
		"StrongOptions":  bb.StrongOptions,
	} {
		var seq, farm []obs.Event
		var mu sync.Mutex
		opt := options()
		opt.Probe = obs.ProbeFunc(func(ev obs.Event) { seq = append(seq, ev) })
		if _, err := bb.Solve(m, opt); err != nil {
			t.Fatal(err)
		}
		opt.Probe = obs.ProbeFunc(func(ev obs.Event) {
			mu.Lock()
			defer mu.Unlock()
			farm = append(farm, ev)
		})
		if _, err := Solve(m, Options{Workers: 2, BB: opt}); err != nil {
			t.Fatal(err)
		}
		want := []obs.Kind{obs.ProblemStart, obs.SearchConfig, obs.SeedBound}
		if len(farm) < len(want) {
			t.Fatalf("%s: %d events", name, len(farm))
		}
		for i, k := range want {
			if farm[i].Kind != k {
				t.Fatalf("%s: event %d is %v, want %v", name, i, farm[i].Kind, k)
			}
		}
		for _, ev := range seq {
			if ev.Kind == obs.SearchConfig && ev.Phase != farm[1].Phase {
				t.Errorf("%s: farm rule set %q, bb.Solve %q", name, farm[1].Phase, ev.Phase)
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

// TestSolveBudget exhausts a tiny shared MaxNodes budget: the farm stops
// short of the proof and expands no more nodes than the budget allows,
// however its two workers' leases overlap. A generous budget still lets
// the farm prove the optimum.
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
	if res.Stats.Expanded > 16 {
		t.Errorf("expanded %d nodes under MaxNodes=16", res.Stats.Expanded)
	}
	identity(t, res.Stats)

	// A budget the search does not need cuts nothing: a lease waits for
	// the refunds of the leases holding the budget instead of starting on
	// an empty grant.
	opt.Workers, opt.BB.MaxNodes = 3, 100000
	if res, err = Solve(m, opt); err != nil {
		t.Fatalf("solve: %v", err)
	}
	if !res.Optimal {
		t.Errorf("MaxNodes=100000 truncated a %d-node search", res.Stats.Expanded)
	}
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
