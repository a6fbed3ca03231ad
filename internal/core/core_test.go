package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"evotree/internal/bb"
	"evotree/internal/compact"
	"evotree/internal/matrix"
	"evotree/internal/obs"
	"evotree/internal/seqsim"
)

func TestConstructWithAndWithoutCompactSets(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 8; trial++ {
		n := 6 + rng.Intn(5)
		m := matrix.PerturbedUltrametric(rng, n, 100, 0.1)

		with, err := Construct(m, DefaultOptions(2))
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultOptions(2)
		opt.UseCompactSets = false
		without, err := Construct(m, opt)
		if err != nil {
			t.Fatal(err)
		}

		if err := with.Tree.Validate(1e-9); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !with.Tree.IsUltrametricTree(1e-9) {
			t.Fatalf("trial %d: merged tree not ultrametric", trial)
		}
		if !with.Tree.Feasible(m, 1e-9) {
			t.Fatalf("trial %d: maximum-reduction merged tree must stay feasible", trial)
		}
		if got := len(with.Tree.Leaves()); got != n {
			t.Fatalf("trial %d: %d leaves, want %d", trial, got, n)
		}
		// The exact MUT is a lower bound for any feasible tree.
		if with.Cost < without.Cost-1e-9 {
			t.Fatalf("trial %d: decomposition cost %g below exact optimum %g",
				trial, with.Cost, without.Cost)
		}
		// Headline property: every compact set is a clade of the result.
		if err := RelationPreserved(with.Tree, with.CompactSets); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestCostGapStaysSmallOnClockLikeData(t *testing.T) {
	// The paper reports < 5% cost difference on random data and ≤ 1.5% on
	// mtDNA. On near-ultrametric instances the decomposition should stay
	// within a modest band of the optimum; we allow 10% slack here to keep
	// the test robust across seeds.
	rng := rand.New(rand.NewSource(31))
	worst := 0.0
	for trial := 0; trial < 10; trial++ {
		n := 7 + rng.Intn(4)
		m := matrix.PerturbedUltrametric(rng, n, 100, 0.05)
		with, err := Construct(m, DefaultOptions(2))
		if err != nil {
			t.Fatal(err)
		}
		exact, err := Exact(m, 2)
		if err != nil {
			t.Fatal(err)
		}
		if gap := CostGap(with.Cost, exact); gap > worst {
			worst = gap
		}
	}
	if worst > 0.10 {
		t.Fatalf("worst cost gap %.2f%% exceeds 10%%", 100*worst)
	}
}

func TestConstructDegenerateInputs(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		m := matrix.RandomMetric(rand.New(rand.NewSource(int64(n))), n, 50, 100)
		res, err := Construct(m, DefaultOptions(2))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := len(res.Tree.Leaves()); got != n {
			t.Fatalf("n=%d: %d leaves", n, got)
		}
		if err := res.Tree.Validate(1e-9); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestConstructExactlyUltrametricIsOptimal(t *testing.T) {
	// On a noiseless ultrametric matrix the decomposition loses nothing:
	// compact-set boundaries coincide with the true clusters.
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 6; trial++ {
		m := matrix.RandomUltrametric(rng, 9, 100)
		with, err := Construct(m, DefaultOptions(2))
		if err != nil {
			t.Fatal(err)
		}
		exact, err := Exact(m, 2)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(with.Cost-exact) > 1e-9 {
			t.Fatalf("trial %d: decomposition %g, exact %g on ultrametric input",
				trial, with.Cost, exact)
		}
	}
}

func TestSubproblemsAreSmallerThanWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	m := matrix.PerturbedUltrametric(rng, 14, 100, 0.05)
	res, err := Construct(m, DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CompactSets) == 0 {
		t.Skip("no compact sets on this seed")
	}
	for _, sp := range res.Subproblems {
		if sp.Size >= m.Len() {
			t.Fatalf("subproblem of size %d not smaller than the input %d", sp.Size, m.Len())
		}
	}
}

func TestReductionVariantsProduceValidTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	m := matrix.PerturbedUltrametric(rng, 9, 100, 0.1)
	for _, r := range []compact.Reduction{compact.Maximum, compact.Minimum, compact.Average} {
		opt := DefaultOptions(2)
		opt.Reduction = r
		res, err := Construct(m, opt)
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		if err := res.Tree.Validate(1e-9); err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		if r == compact.Maximum && !res.Tree.Feasible(m, 1e-9) {
			t.Fatalf("maximum reduction must stay feasible")
		}
	}
}

func TestRelationPreservedDetectsViolation(t *testing.T) {
	// Build a tree, then claim a compact set that is NOT a clade and make
	// sure the check reports it.
	rng := rand.New(rand.NewSource(36))
	m := matrix.PerturbedUltrametric(rng, 6, 100, 0.1)
	res, err := Construct(m, DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	// Pick two species with the shallowest LCA (root): {a,b} cannot be a
	// clade unless the tree has only those two leaves.
	leaves := res.Tree.Leaves()
	var a, b int
	deep := -1.0
	for x := 0; x < len(leaves); x++ {
		for y := x + 1; y < len(leaves); y++ {
			h := res.Tree.Nodes[res.Tree.LCA(leaves[x], leaves[y])].Height
			if h > deep {
				deep, a, b = h, leaves[x], leaves[y]
			}
		}
	}
	if err := RelationPreserved(res.Tree, []compact.Set{{a, b}}); err == nil {
		t.Fatal("want violation for a non-clade set")
	}
}

// threeBlocks is three compact blocks of 13 species: distances 10 or 11
// at random inside a block and 100 between blocks. Each block reduces to
// a 13-row subproblem, at least parallelThreshold, and the ties inside
// it give the search a few thousand expansions to share out.
func threeBlocks(seed int64) *matrix.Matrix {
	const size = 13
	rng := rand.New(rand.NewSource(seed))
	m := matrix.New(3 * size)
	for i := 0; i < m.Len(); i++ {
		for j := i + 1; j < m.Len(); j++ {
			d := 100.0
			if i/size == j/size {
				d = float64(10 + rng.Intn(2))
			}
			m.Set(i, j, d)
		}
	}
	return m
}

func TestParallelThresholdPath(t *testing.T) {
	// Subproblems of parallelThreshold groups or more route through the
	// parallel engine when Workers > 1; the result must match the
	// sequential engine's.
	m := threeBlocks(37)
	var mu sync.Mutex
	pbbWorkers := 0
	opt := DefaultOptions(3)
	opt.Probe = obs.ProbeFunc(func(ev obs.Event) {
		if ev.Kind == obs.WorkerStart {
			mu.Lock()
			pbbWorkers++
			mu.Unlock()
		}
	})
	res, err := Construct(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Construct(m, DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if pbbWorkers == 0 {
		t.Fatal("no subproblem reached the parallel engine")
	}
	big := 0
	for _, sp := range res.Subproblems {
		if sp.Size >= parallelThreshold {
			big++
		}
	}
	if big != 3 {
		t.Fatalf("%d subproblems of at least %d rows, want the 3 blocks", big, parallelThreshold)
	}
	if math.Abs(res.Cost-seq.Cost) > 1e-9 {
		t.Fatalf("parallel-path cost %g, sequential-path %g", res.Cost, seq.Cost)
	}
	if !res.Tree.Feasible(m, 1e-9) {
		t.Fatal("infeasible")
	}
}

// TestSubproblemSolveTimeExcludesQueueing pins what SubproblemFinish's
// Elapsed measures: the solve alone, not the wait for the worker
// semaphore. With one worker the solves run one at a time, so their
// times must sum to no more than the whole construction; timing from
// before the grant counted every queued subproblem's wait as well.
func TestSubproblemSolveTimeExcludesQueueing(t *testing.T) {
	ds, err := seqsim.Generate(rand.New(rand.NewSource(5)), seqsim.Params{Species: 400, SeqLen: 150, Rate: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var solves time.Duration
	finished := 0
	opt := DefaultOptions(1)
	opt.Probe = obs.ProbeFunc(func(ev obs.Event) {
		if ev.Kind == obs.SubproblemFinish {
			mu.Lock()
			solves += ev.Elapsed
			finished++
			mu.Unlock()
		}
	})
	res, err := Construct(ds.Matrix, opt)
	if err != nil {
		t.Fatal(err)
	}
	if finished < 2 {
		t.Fatalf("only %d subproblems solved; the check needs queueing", finished)
	}
	if solves > res.Elapsed {
		t.Fatalf("%d subproblem solves sum to %v, above the %v construction", finished, solves, res.Elapsed)
	}
}

// seqsimMatrix is an mtDNA-like Hamming matrix of n species, the
// decomposition's home ground: a couple of hundred small subproblems.
func seqsimMatrix(t *testing.T, seed int64, n int) *matrix.Matrix {
	t.Helper()
	ds, err := seqsim.Generate(rand.New(rand.NewSource(seed)), seqsim.Params{Species: n, SeqLen: 150, Rate: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	return ds.Matrix
}

// TestSubproblemsInFlightWithinWorkers pins the pool's bound: a
// subproblem is in flight from its SubproblemStart to its
// SubproblemFinish, detection from its PhaseStart to its PhaseEnd, and at
// most Workers are in flight at once, because detection holds one unit of
// the worker semaphore until it returns and a node runs only on a
// goroutine that holds a unit.
func TestSubproblemsInFlightWithinWorkers(t *testing.T) {
	const detect = -1 // detection's key; subproblem ids are ≥ 0
	m := seqsimMatrix(t, 5, 400)
	for _, workers := range []int{1, 2, 3} {
		var mu sync.Mutex
		inFlight := map[int]bool{}
		peak, started := 0, 0
		opt := DefaultOptions(workers)
		opt.Probe = obs.ProbeFunc(func(ev obs.Event) {
			mu.Lock()
			defer mu.Unlock()
			switch {
			case ev.Kind == obs.PhaseStart && ev.Phase == "compact-detect":
				inFlight[detect] = true
				peak = max(peak, len(inFlight))
			case ev.Kind == obs.PhaseEnd && ev.Phase == "compact-detect":
				delete(inFlight, detect)
			case ev.Kind == obs.SubproblemStart:
				inFlight[ev.Worker] = true
				started++
				peak = max(peak, len(inFlight))
			case ev.Kind == obs.SubproblemFinish:
				delete(inFlight, ev.Worker)
			}
		})
		res, err := Construct(m, opt)
		if err != nil {
			t.Fatal(err)
		}
		if started != len(res.Subproblems) || started < 2*workers {
			t.Fatalf("workers=%d: %d subproblems started, %d solved", workers, started, len(res.Subproblems))
		}
		if len(inFlight) != 0 {
			t.Fatalf("workers=%d: %d stages started and never finished", workers, len(inFlight))
		}
		if peak > workers {
			t.Fatalf("workers=%d: %d stages in flight at once", workers, peak)
		}
	}
}

// TestSubproblemsStartDuringDetection pins the streaming: with a second
// worker the pool solves confirmed nodes while detection still walks the
// MST, so a SubproblemStart arrives before detection's PhaseEnd; with one
// worker detection holds the only unit, and none may. The goroutine that
// solves has to be scheduled while detection runs, which a busy machine
// may delay for many constructs, so the two-worker case gets up to five
// seconds of constructs to show it.
func TestSubproblemsStartDuringDetection(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("streaming needs two threads to overlap detection and solving")
	}
	m := seqsimMatrix(t, 5, 400)
	// early counts the SubproblemStart events before detection's PhaseEnd.
	early := func(workers int) int {
		var mu sync.Mutex
		detected, n := false, 0
		opt := DefaultOptions(workers)
		opt.Probe = obs.ProbeFunc(func(ev obs.Event) {
			mu.Lock()
			defer mu.Unlock()
			switch {
			case ev.Kind == obs.PhaseEnd && ev.Phase == "compact-detect":
				detected = true
			case ev.Kind == obs.SubproblemStart && !detected:
				n++
			}
		})
		if _, err := Construct(m, opt); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := early(1); n != 0 {
		t.Fatalf("workers=1: %d subproblems started during detection", n)
	}
	tries := 0
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); tries++ {
		if early(2) > 0 {
			return
		}
	}
	t.Fatalf("workers=2: no subproblem started during detection in %d constructs", tries)
}

// TestWorkerCountsAgree checks that the worker count changes only who
// solves which node: any count gives the one-worker cost and the
// one-worker subproblems in the same (post-)order, and every compact set
// stays a clade.
func TestWorkerCountsAgree(t *testing.T) {
	m := seqsimMatrix(t, 5, 400)
	one, err := Construct(m, DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		res, err := Construct(m, DefaultOptions(workers))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Cost-one.Cost) > 1e-9 {
			t.Fatalf("workers=%d: cost %v, one worker %v", workers, res.Cost, one.Cost)
		}
		if err := RelationPreserved(res.Tree, res.CompactSets); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Subproblems) != len(one.Subproblems) {
			t.Fatalf("workers=%d: %d subproblems, one worker %d", workers, len(res.Subproblems), len(one.Subproblems))
		}
		for i, sp := range res.Subproblems {
			want := one.Subproblems[i]
			if !slices.Equal(sp.Group, want.Group) || sp.Size != want.Size || math.Abs(sp.Cost-want.Cost) > 1e-9 {
				t.Fatalf("workers=%d: subproblem %d is %v of size %d, cost %v; one worker %v of size %d, cost %v",
					workers, i, sp.Group, sp.Size, sp.Cost, want.Group, want.Size, want.Cost)
			}
		}
	}
}

// TestConstructReportsSubproblemError drives the work list's failure path:
// a compact set of 70 equidistant species reduces to 70 rows, more than
// the search accepts, while a sibling set solves normally. Construct must
// return the search's error for any worker count, not a tree and not hang.
func TestConstructReportsSubproblemError(t *testing.T) {
	const big, small = 70, 6
	um := matrix.RandomUltrametric(rand.New(rand.NewSource(38)), small, 40)
	m := matrix.New(big + small)
	for i := 0; i < big+small; i++ {
		for j := i + 1; j < big+small; j++ {
			switch {
			case j < big:
				m.Set(i, j, 10)
			case i >= big:
				m.Set(i, j, um.At(i-big, j-big))
			default:
				m.Set(i, j, 100)
			}
		}
	}
	for _, workers := range []int{1, 2, 3} {
		res, err := Construct(m, DefaultOptions(workers))
		if err == nil {
			t.Fatalf("workers=%d: got a tree of cost %v, want the oversized subproblem's error", workers, res.Cost)
		}
		if !strings.Contains(err.Error(), "exceeds the supported maximum") {
			t.Fatalf("workers=%d: error %q, want the search's size error", workers, err)
		}
	}
}

// TestPairTreeMatchesSearch pins the closed form of a two-group node
// against bb.Solve on the node's reduced 2×2 matrix: the same tree nodes
// and the same cost bits, under every reduction and search option set.
// Besides seqsim's many two-group nodes, the inputs include tied cross
// distances and roots with two children.
func TestPairTreeMatchesSearch(t *testing.T) {
	tied := matrix.New(4) // {0,1} and {2,3}, every cross pair at 5
	tied.Set(0, 1, 1)
	tied.Set(2, 3, 1)
	for _, p := range [][2]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}} {
		tied.Set(p[0], p[1], 5)
	}
	twoClusters := threeBlocks(39) // the first block against the rest
	for i := 13; i < 26; i++ {
		for j := 26; j < 39; j++ {
			twoClusters.Set(i, j, 12)
		}
	}
	pair := matrix.New(2)
	pair.Set(0, 1, 3)
	mats := []*matrix.Matrix{tied, twoClusters, pair, seqsimMatrix(t, 5, 400),
		matrix.PerturbedUltrametric(rand.New(rand.NewSource(40)), 60, 100, 0.1)}
	noSeed := bb.DefaultOptions()
	noSeed.NoInitialUB = true
	opts := []bb.Options{bb.DefaultOptions(), bb.PaperOptions(), noSeed}
	pairs, pairRoots := 0, 0
	for _, m := range mats {
		h, _, err := compact.BuildHierarchy(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(h.Children) == 2 {
			pairRoots++
		}
		for _, g := range h.PostOrder() {
			if len(g.Children) != 2 {
				continue
			}
			pairs++
			for _, r := range []compact.Reduction{compact.Maximum, compact.Minimum, compact.Average} {
				got := pairTree(m, g, r)
				small, _, err := compact.Reduce(m, g, r)
				if err != nil {
					t.Fatal(err)
				}
				for _, o := range opts {
					want, err := bb.Solve(small, o)
					if err != nil {
						t.Fatal(err)
					}
					if got.Root != want.Tree.Root || !reflect.DeepEqual(got.Nodes, want.Tree.Nodes) {
						t.Fatalf("%v on %v: closed form %v, search %v", r, g.Members, got.Nodes, want.Tree.Nodes)
					}
					if math.Float64bits(got.Cost()) != math.Float64bits(want.Cost) {
						t.Fatalf("%v on %v: closed-form cost %v, search %v", r, g.Members, got.Cost(), want.Cost)
					}
				}
			}
		}
	}
	if pairs < 100 || pairRoots < 3 {
		t.Fatalf("%d two-group nodes, %d of them roots; the check wants many, and roots", pairs, pairRoots)
	}
}
