// Package core assembles the paper's end-to-end technique: compact-set
// decomposition of a distance matrix into several small matrices, parallel
// branch-and-bound construction of an ultrametric subtree for each, and a
// merge of the subtrees into one near-optimal ultrametric tree that keeps
// the relations among species.
//
// Construct with Options.UseCompactSets=false runs the plain (parallel)
// branch-and-bound on the full matrix — the paper's control condition.
package core

import (
	"fmt"
	"sync"
	"time"

	"evotree/internal/bb"
	"evotree/internal/compact"
	"evotree/internal/matrix"
	"evotree/internal/obs"
	"evotree/internal/pbb"
	"evotree/internal/tree"
)

// Options configure Construct.
type Options struct {
	// UseCompactSets enables the decomposition (the paper's condition 1);
	// when false the full matrix goes straight to the branch-and-bound
	// (condition 2).
	UseCompactSets bool
	// Reduction picks the group-distance rule for the small matrices. The
	// paper studies Maximum, the only rule that keeps the merged tree
	// feasible.
	Reduction compact.Reduction
	// Workers caps the total number of search goroutines across the whole
	// pipeline. Concurrent subproblems share this budget through a weighted
	// semaphore: each sequential solve costs one unit, each parallel solve
	// costs one unit per pbb worker it is granted (at least one, at most
	// Workers), so machine load never exceeds Workers no matter how many
	// hierarchy nodes are solvable at once. Workers also sizes the pool
	// that reduces and solves the hierarchy nodes while compact-set
	// detection runs; detection holds one unit until it returns, so at
	// most Workers of detection and the nodes are in progress at a time.
	Workers int
	// BB carries the branch-and-bound options (max–min, 3-3, MaxNodes...).
	BB bb.Options
	// Probe, when non-nil, receives pipeline telemetry (phase timings for
	// compact-set detection, reduction, each subproblem solve, and the
	// merge) and is propagated to the underlying searches unless BB.Probe
	// is already set.
	Probe obs.Probe
}

// parallelThreshold routes subproblems with at least this many groups to
// the parallel engine (the paper feeds its small matrices to the parallel
// branch-and-bound); smaller ones run sequentially to avoid goroutine
// overhead. Thresholds of 12, 20, 30 and 65 ran the decompose batch within
// run-to-run noise of each other.
const parallelThreshold = 12

// DefaultOptions is the paper's configuration: compact sets on, maximum
// matrices, exact B&B per subproblem.
func DefaultOptions(workers int) Options {
	return Options{
		UseCompactSets: true,
		Reduction:      compact.Maximum,
		Workers:        workers,
		BB:             bb.DefaultOptions(),
	}
}

// Subproblem records one reduced matrix solved during decomposition.
type Subproblem struct {
	Group []int   // species of the hierarchy node
	Size  int     // dimension of the reduced matrix
	Cost  float64 // ω of the subtree built for it
}

// Result is the outcome of Construct.
type Result struct {
	Tree        *tree.Tree    // the assembled ultrametric tree
	Cost        float64       // ω(Tree)
	CompactSets []compact.Set // detected non-trivial compact sets (nil without decomposition)
	Subproblems []Subproblem  // one per internal hierarchy node (nil without decomposition)
	Stats       bb.Stats      // aggregated search statistics
	// Sched aggregates the work-stealing scheduler traffic (steals, parks,
	// overflow donations) of every parallel sub-solve in the pipeline; zero
	// when only sequential solves ran.
	Sched   pbb.SchedStats
	Elapsed time.Duration // wall-clock construction time
	// Optimal reports whether every underlying search ran to completion.
	// False means a node budget or context cancelled at least one solve, so
	// the tree may be worse than the method's true output (the verification
	// harness skips cost-equality assertions in that case).
	Optimal bool
}

// Construct builds an ultrametric tree for m according to opt.
func Construct(m *matrix.Matrix, opt Options) (*Result, error) {
	start := time.Now()
	if opt.Workers < 1 {
		opt.Workers = 1
	}
	if opt.Probe != nil && opt.BB.Probe == nil {
		// Let the pipeline probe see the underlying searches too (seed
		// bounds, UB improvements, pool traffic).
		opt.BB.Probe = opt.Probe
	}
	var res *Result
	var err error
	if opt.UseCompactSets {
		res, err = constructDecomposed(m, opt)
	} else {
		res, err = constructWhole(m, opt)
	}
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

func constructWhole(m *matrix.Matrix, opt Options) (*Result, error) {
	if m.Len() == 1 {
		t := tree.New(0)
		t.SetNames(m.Names())
		return &Result{Tree: t, Optimal: true}, nil
	}
	pres, err := pbb.Solve(m, pbb.Options{Options: opt.BB, Workers: opt.Workers, InitialFanout: 2})
	if err != nil {
		return nil, err
	}
	return &Result{Tree: pres.Tree, Cost: pres.Cost, Stats: pres.Stats,
		Sched: pres.Sched, Optimal: pres.Optimal}, nil
}

func constructDecomposed(m *matrix.Matrix, opt Options) (*Result, error) {
	pipeStart := time.Now()
	emit := func(ev obs.Event) {
		if opt.Probe != nil {
			opt.Probe.Emit(ev)
		}
	}
	// Reduce and solve the internal hierarchy nodes while detection still
	// runs — the "constructing evolutionary tree in parallel" of the
	// paper's title. Detection hands each node over the moment it is final
	// (children first, the root last); opt.Workers−1 goroutines take the
	// largest ready node first, and the caller joins them once detection
	// returns, starting at once on the root. A node needs only the input
	// and its children's members, so any order works; each result goes to
	// the node's own job, and the tree is assembled once all are in. The
	// semaphore is weighted in search-goroutine units: detection holds one
	// unit and then works with it, a goroutine holds one while it works
	// through ready nodes, and a parallel solve adds one per further pbb
	// worker, so detection, reductions and searches never run on more than
	// opt.Workers goroutines together.
	sem := newWorkerSem(opt.Workers)
	sem.acquire() // detection's unit
	// solve reduces internal node h and solves its small matrix; id tags
	// the node's telemetry events.
	solve := func(id int, h *compact.Hierarchy) solved {
		// A big node adds the units free now to its goroutine's one.
		grant := 1
		parallel := len(h.Children) >= parallelThreshold && opt.Workers > 1
		if parallel {
			extra := sem.take(opt.Workers - 1)
			defer sem.release(extra)
			grant += extra
		}
		reduceStart := time.Now()
		small, _, err := compact.Reduce(m, h, opt.Reduction)
		if err != nil {
			return solved{err: err}
		}
		emit(obs.Event{Kind: obs.PhaseEnd, Phase: "reduce", Worker: id,
			N: small.Len(), Elapsed: time.Since(reduceStart)})
		emit(obs.Event{Kind: obs.SubproblemStart, Worker: id,
			N: small.Len(), Elapsed: time.Since(pipeStart)})
		solveStart := time.Now()
		s := solved{optimal: true}
		switch {
		case small.Len() == 1:
			s.tree = tree.New(0)
		case parallel:
			// Big subproblem: the parallel engine, as in the paper. It runs
			// with as many workers as the semaphore could spare (at least
			// one), so concurrent subproblems share the worker budget
			// instead of multiplying it.
			pres, err := pbb.Solve(small, pbb.Options{
				Options: opt.BB, Workers: grant, InitialFanout: 2,
			})
			if err != nil {
				return solved{err: err}
			}
			s.tree, s.sub.Cost, s.stats = pres.Tree, pres.Cost, pres.Stats
			s.sched, s.optimal = pres.Sched, pres.Optimal
		default:
			sres, err := bb.Solve(small, opt.BB)
			if err != nil {
				return solved{err: err}
			}
			s.tree, s.sub.Cost, s.stats = sres.Tree, sres.Cost, sres.Stats
			s.optimal = sres.Optimal
		}
		emit(obs.Event{Kind: obs.SubproblemFinish, Worker: id,
			N: small.Len(), Value: s.sub.Cost, Elapsed: time.Since(solveStart)})
		s.sub.Group = append([]int(nil), h.Members...)
		s.sub.Size = small.Len()
		return s
	}

	q := newReadyQueue()
	// work reduces and solves ready nodes, largest first, until none is
	// ready; its goroutine holds one unit meanwhile.
	work := func() {
		for j := q.pop(); j != nil; j = q.pop() {
			j.solved = solve(j.id, j.h)
			if j.err != nil {
				q.fail() // the remaining nodes are skipped
			}
		}
	}
	var wg sync.WaitGroup
	for range opt.Workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Between runs of ready nodes the unit goes back, so a big
			// node can take it.
			for q.wait() {
				sem.acquire()
				work()
				sem.release(1)
			}
		}()
	}
	emit(obs.Event{Kind: obs.PhaseStart, Phase: "compact-detect", N: m.Len()})
	detectStart := time.Now()
	hier, sets, err := compact.Detect(m, q.push)
	q.close()
	if err == nil {
		emit(obs.Event{Kind: obs.PhaseEnd, Phase: "compact-detect",
			N: len(sets), Elapsed: time.Since(detectStart)})
		// The caller completes the pool with detection's unit and starts
		// on the root, the largest node, at once.
		work()
	}
	sem.release(1)
	wg.Wait()
	if err != nil {
		return nil, err
	}

	// Fold the results in post-order, so Subproblems lists them in the
	// same order at every worker count.
	res := &Result{CompactSets: sets, Optimal: true}
	trees := make(map[*compact.Hierarchy]*tree.Tree, len(q.jobs))
	for _, h := range hier.PostOrder() {
		s := q.jobs[h].solved
		if s.err != nil {
			return nil, s.err
		}
		trees[h] = s.tree
		res.Subproblems = append(res.Subproblems, s.sub)
		res.Stats.Add(s.stats)
		res.Sched.Add(s.sched)
		res.Optimal = res.Optimal && s.optimal
	}
	mergeStart := time.Now()
	t, err := compact.Assemble(hier, trees)
	if err != nil {
		return nil, err
	}
	emit(obs.Event{Kind: obs.PhaseEnd, Phase: "merge",
		N: m.Len(), Elapsed: time.Since(mergeStart)})
	validateStart := time.Now()
	t.SetNames(m.Names())
	res.Tree = t
	res.Cost = t.Cost()
	if err := t.Validate(1e-9); err != nil {
		return nil, fmt.Errorf("core: assembled tree invalid: %w", err)
	}
	emit(obs.Event{Kind: obs.PhaseEnd, Phase: "validate",
		N: m.Len(), Elapsed: time.Since(validateStart)})
	return res, nil
}

// solved is what reducing and solving one internal hierarchy node leaves
// in the node's slot.
type solved struct {
	tree    *tree.Tree // over the node's reduced matrix: leaf species = child row
	sub     Subproblem
	stats   bb.Stats
	sched   pbb.SchedStats
	optimal bool
	err     error
}

// CostGap returns (approx − exact) / exact: the relative cost penalty of
// the decomposition the paper bounds at 5% (random data) and 1.5% (mtDNA).
func CostGap(approx, exact float64) float64 {
	if exact == 0 {
		return 0
	}
	return (approx - exact) / exact
}

// RelationPreserved verifies the paper's headline property on a result
// tree: every detected compact set appears as a clade, i.e. for any two
// species inside a compact set and any species outside it, the inside pair
// has the strictly deeper (or equal) LCA. It returns an error naming the
// first violated set.
func RelationPreserved(t *tree.Tree, sets []compact.Set) error {
	for _, s := range sets {
		if err := t.CladeCheck(s); err != nil {
			return fmt.Errorf("core: compact set violated: %w", err)
		}
	}
	return nil
}

// Exact solves the full matrix exactly (no decomposition) and returns the
// optimal cost; a convenience for the cost-comparison experiments.
func Exact(m *matrix.Matrix, workers int) (float64, error) {
	res, err := constructWhole(m, Options{Workers: workers, BB: bb.DefaultOptions()})
	if err != nil {
		return 0, err
	}
	return res.Cost, nil
}
