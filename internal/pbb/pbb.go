// Package pbb is the parallel branch-and-bound engine of the papers: a
// master/worker search over goroutines in which
//
//   - the master relabels the species (max–min permutation), seeds the
//     upper bound with UPGMM, applies the 3-3 constraint to the third
//     species, branches the BBT until at least 2× the number of computing
//     nodes of subproblems exist, sorts them by lower bound, and dispatches
//     them cyclically;
//   - every worker runs depth-first search over its own work-stealing
//     deque, prunes against the shared global upper bound, publishes strict
//     improvements to all other workers immediately, and — when it drains —
//     refills from the small global seed/overflow ring or steals the
//     least promising node from a random victim.
//
// The load-balancing layer modernizes the paper's master/slave global-pool
// scheme: instead of donating worst nodes to a mutex-guarded global pool,
// each worker owns a Chase–Lev deque whose top end always holds its
// oldest, highest-lower-bound subproblem, and idle workers steal from
// there — the same "move the least promising work" discipline, with no
// lock on any hot path. The shared upper bound is an atomic (float64 bits)
// read by a single load, termination is detected by atomic in-flight
// counting, and idle workers spin briefly before parking.
//
// Because an improvement found by any worker prunes the others' subtrees
// at once, the engine explores fewer nodes than the sequential search on
// many instances — the effect behind the super-linear speedups reported in
// the companion paper.
package pbb

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"evotree/internal/bb"
	"evotree/internal/matrix"
	"evotree/internal/obs"
)

// Options configure a parallel solve. The embedded bb.Options apply to the
// whole search: MaxNodes is a shared expansion budget charged by the master
// phase first and then split among the workers (never negatively), and Ctx
// cancels the master's branching loop as well as every worker. Either
// trigger returns the incumbent with Optimal=false.
type Options struct {
	bb.Options
	// Workers is the number of computing nodes (goroutines). Zero or
	// negative means 1.
	Workers int
	// InitialFanout is how many subproblems per worker the master creates
	// before dispatching. The paper uses 2 ("2 times of total nodes in the
	// computing environment").
	InitialFanout int
}

// DefaultOptions mirrors the papers' setup with the given worker count.
func DefaultOptions(workers int) Options {
	return Options{Options: bb.DefaultOptions(), Workers: workers, InitialFanout: 2}
}

// Result extends the sequential result with parallel bookkeeping.
type Result struct {
	bb.Result
	WorkerStats []bb.Stats // per-worker search statistics
	PoolGets    int64      // subproblems pulled from the global seed/overflow ring
	PoolPuts    int64      // subproblems added to the ring (master dispatch + overflow donations)
	MasterNodes int        // subproblems created by the master before dispatch
	Sched       SchedStats // work-stealing scheduler traffic (steals, parks, donations)
}

// Solve runs the parallel branch-and-bound on m.
func Solve(m *matrix.Matrix, opt Options) (*Result, error) {
	p, err := bb.NewProblem(m, opt.UseMaxMin)
	if err != nil {
		return nil, err
	}
	return SolveProblem(p, opt), nil
}

// SolveProblem runs the parallel search on an existing problem instance.
func SolveProblem(p *bb.Problem, opt Options) *Result {
	if opt.Workers < 1 {
		opt.Workers = 1
	}
	if opt.InitialFanout < 1 {
		opt.InitialFanout = 2
	}
	res := &Result{WorkerStats: make([]bb.Stats, opt.Workers)}
	res.Optimal = true
	res.OpenLB = math.Inf(1)
	start := time.Now()
	probe := opt.Probe
	inc := new(bb.Incumbent)
	p.Start(opt.Options, start, inc)

	// Master phase: breadth-first branching until the frontier is large
	// enough to feed every worker (Steps 1–5). The master and the workers
	// draw from one expansion budget, so a small Options.MaxNodes caps the
	// whole search, and the master polls the context like the workers do;
	// both trips force Optimal=false.
	budget := bb.NewBudget(opt.MaxNodes)
	var masterStats bb.Stats
	master := &bb.Step{P: p, Opt: opt.Options, Pool: p.NewPool(), Budget: budget, Stats: &masterStats}
	root := p.Root()
	masterStats.Roots++
	sampling := probe != nil && opt.GapPeriod > 0
	if sampling {
		// Initial convergence snapshot: one root open, nothing expanded.
		ub := inc.Bound()
		probe.Emit(obs.Event{Kind: obs.GapSample, Worker: obs.MasterWorker,
			Value: ub, BestLB: root.LB, Gap: obs.GapRatio(ub, root.LB),
			Frontier: 1, Elapsed: time.Since(start)})
	}
	frontier, ok := master.Split(root, opt.InitialFanout*opt.Workers, inc.Bound(), func(v *bb.PNode) float64 {
		inc.Offer(p, v, obs.MasterWorker, masterStats.Expanded)
		return inc.Bound()
	})
	if !ok {
		res.Optimal = false
	}
	res.MasterNodes = len(frontier)

	// Step 6: cyclic dispatch; a 1/(workers+1) share stays in the global
	// ring (the paper's master "preserves 1/p nodes in GP"), the rest is
	// dealt into the workers' deques before they start.
	sched := newScheduler(opt.Workers, probe, start)
	locals := make([][]*bb.PNode, opt.Workers)
	for i, v := range frontier {
		slot := i % (opt.Workers + 1)
		if slot == opt.Workers {
			sched.ring.put(v, obs.MasterWorker, obs.PoolPut)
		} else {
			locals[slot] = append(locals[slot], v)
		}
	}
	sched.addInFlight(len(frontier))
	if len(frontier) == 0 {
		// The master phase already exhausted the search (tiny instance or
		// total pruning); release the workers immediately.
		sched.markDone()
	}

	// Gap sampler: a goroutine reading the workers' published telemetry
	// slots at GapPeriod. Started only when sampling is on, stopped (and
	// joined) before any terminal event so ProblemFinish stays last. The
	// master's expansion count is frozen here, so the sampler never reads
	// masterStats concurrently.
	sched.sampling = sampling
	var samplerStop, samplerDone chan struct{}
	if sampling {
		samplerStop, samplerDone = make(chan struct{}), make(chan struct{})
		masterExpanded := masterStats.Expanded
		go func() {
			defer close(samplerDone)
			tick := time.NewTicker(opt.GapPeriod)
			defer tick.Stop()
			last := time.Now()
			var lastNodes int64
			for {
				select {
				case <-samplerStop:
					return
				case <-tick.C:
					lb, wexp, frontier := sched.telemetry()
					expanded := masterExpanded + wexp
					now := time.Now()
					var rate float64
					if dt := now.Sub(last); dt > 0 {
						rate = float64(expanded-lastNodes) / dt.Seconds()
					}
					last, lastNodes = now, expanded
					cur := inc.Bound()
					probe.Emit(obs.Event{Kind: obs.GapSample, Worker: obs.MasterWorker,
						Value: cur, BestLB: lb, Gap: obs.GapRatio(cur, lb), Rate: rate,
						Nodes: expanded, Frontier: frontier, Elapsed: now.Sub(start)})
				}
			}
		}()
	}

	var wg sync.WaitGroup
	cancelled := make([]bool, opt.Workers)
	openMins := make([]float64, opt.Workers)
	// Workers bump their counters on every expansion, and neighbouring
	// elements of res.WorkerStats share cache lines, so each worker counts
	// into a padded slot of its own and copies it out when done.
	counters := make([]workerStats, opt.Workers)
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cancelled[w], openMins[w] = runWorker(p, opt, sched, inc, locals[w], &counters[w].Stats, budget, w, start)
			res.WorkerStats[w] = counters[w].Stats
		}(w)
	}
	wg.Wait()
	if sampling {
		close(samplerStop)
		<-samplerDone
	}
	for w, c := range cancelled {
		if c {
			res.Optimal = false
		}
		if openMins[w] < res.OpenLB {
			res.OpenLB = openMins[w]
		}
	}

	// Step 8: gather.
	res.Stats = masterStats
	for i := range res.WorkerStats {
		res.Stats.Add(res.WorkerStats[i])
	}
	res.PoolGets, res.PoolPuts = sched.ring.gets.Load(), sched.ring.puts.Load()
	res.Sched = SchedStats{
		Steals:  sched.steals.Load(),
		Parks:   sched.parks.Load(),
		Donates: sched.donates.Load(),
	}
	inc.Result(&res.Result)
	if probe != nil {
		// Flush the master's prune attribution (workers flushed their own
		// in runWorker) and the terminal gap snapshot before
		// ProblemFinish, which must stay the final event of a search.
		bb.EmitPruneStats(probe, obs.MasterWorker, masterStats.Pruned, time.Since(start))
		if sampling {
			probe.Emit(obs.Event{Kind: obs.GapSample, Worker: obs.MasterWorker,
				Value: res.Cost, BestLB: res.OpenLB, Gap: obs.GapRatio(res.Cost, res.OpenLB),
				Nodes: res.Stats.Expanded, Elapsed: time.Since(start)})
		}
		probe.Emit(obs.Event{Kind: obs.ProblemFinish, Worker: obs.MasterWorker,
			Value: res.Cost, Nodes: res.Stats.Expanded, Elapsed: time.Since(start)})
	}
	return res
}

// workerStats is one worker's counters, padded so that no two workers'
// counters share a cache line.
type workerStats struct {
	bb.Stats
	_ [64]byte
}

// runWorker is the paper's Step 7 loop for one computing node, rebuilt on
// the work-stealing scheduler. It reports whether it stopped early
// (context cancelled or shared expansion budget exhausted) together with
// the smallest lower bound among the nodes it abandoned (+Inf when none);
// a stopped worker keeps consuming nodes without expanding them so the
// in-flight count still reaches zero and every worker exits promptly.
func runWorker(p *bb.Problem, opt Options, s *scheduler, inc *bb.Incumbent,
	seed []*bb.PNode, stats *bb.Stats, budget *atomic.Int64, id int, start time.Time) (bool, float64) {
	probe := opt.Probe
	tel := &workerTel{id: id, probe: probe, start: start, stats: stats}
	if probe != nil {
		probe.Emit(obs.Event{Kind: obs.WorkerStart, Worker: id,
			Nodes: int64(len(seed)), Elapsed: time.Since(start)})
		defer func() {
			tel.flush()
			// Per-worker prune attribution, batched across the whole loop:
			// the prune hot paths only touch plain counters.
			bb.EmitPruneStats(probe, id, stats.Pruned, time.Since(start))
			probe.Emit(obs.Event{Kind: obs.WorkerFinish, Worker: id,
				Nodes: stats.Expanded, Elapsed: time.Since(start)})
		}()
	}
	np := p.NewPool()
	st := &bb.Step{P: p, Opt: opt.Options, Pool: np, Budget: budget, Stats: stats}
	d := &s.deques[id]
	// Seed the deque with the master's dispatch. The list arrives sorted
	// by ascending LB; pushing worst-first leaves the most promising node
	// at the bottom (popped first, DFS order) and the least promising at
	// the top (stolen first).
	for i := len(seed) - 1; i >= 0; i-- {
		s.pushLocal(id, d, seed[i])
	}

	// rngState seeds victim selection deterministically per worker
	// (splitmix64 of the id, so ids 0 and 1 do not share a sequence).
	rngState := splitmix64(uint64(id) + 1)
	cancelled := false
	openMin := math.Inf(1) // best LB among nodes this worker abandoned
	ub := inc.Bound()
	epoch := inc.Epoch()
	var scratch []*bb.PNode // reprune sweep buffer, allocated on first use
	var iter int64
	for {
		v, ok := s.next(id, &rngState, tel)
		if !ok {
			if s.sampling {
				s.publish(id, math.Inf(1), stats.Expanded)
			}
			return cancelled, openMin
		}
		if s.sampling {
			s.publish(id, v.LB, stats.Expanded)
		}
		// Poll the context every 64 nodes, including the very first one, so
		// a pre-cancelled context stops the worker before any expansion.
		if !cancelled && opt.Ctx != nil && iter&63 == 0 && opt.Ctx.Err() != nil {
			cancelled = true
		}
		iter++
		if e := inc.Epoch(); e != epoch {
			// Another worker improved the shared bound: refresh the cached
			// copy and lazily re-prune our own deque against it, off any
			// lock — stale subproblems die here instead of being expanded.
			epoch = e
			ub = inc.Bound()
			scratch = s.repruneLocal(id, d, ub, opt.CollectAll, np, stats, scratch)
		}
		var children []*bb.PNode
		if !cancelled {
			if held := int(d.size()) + 1; held > stats.MaxPoolLen {
				stats.MaxPoolLen = held
			}
			children, ok = st.Run(v, ub)
			cancelled = !ok
		}
		if cancelled {
			// Drain without expanding so termination detection still
			// reaches zero and every worker exits promptly. The node is
			// abandoned unexplored: a budget prune, and its LB feeds the
			// truncated result's proof floor (Result.OpenLB).
			stats.CountBudgetPrune(1)
			if v.LB < openMin {
				openMin = v.LB
			}
			s.finish(1)
			np.Put(v)
			continue
		}
		if n := len(children); n > 0 && children[0].Complete(p) {
			for _, ch := range children {
				stats.Completed++
				inc.Offer(p, ch, id, stats.Expanded)
				np.Put(ch)
			}
		} else if n > 0 {
			// Count the children in-flight BEFORE they become stealable,
			// then push worst-first so the best child is popped next.
			s.addInFlight(n)
			for i := n - 1; i >= 0; i-- {
				s.pushLocal(id, d, children[i])
			}
			s.unpark(n)
		}
		s.finish(1)
	}
}

// repruneLocal empties the worker's own deque into scratch, discards every
// node the refreshed bound prunes, and pushes the survivors back in their
// original order. Runs only when the bound epoch changed — a handful of
// times per search — and touches only the owner's end of the deque, so no
// lock is needed; thieves racing the sweep simply steal nodes before the
// sweep reaches them.
func (s *scheduler) repruneLocal(id int, d *deque, ub float64, collectAll bool,
	np *bb.NodePool, stats *bb.Stats, scratch []*bb.PNode) []*bb.PNode {
	scratch = scratch[:0]
	pruned := 0
	for {
		v := d.pop()
		if v == nil {
			break
		}
		if bb.Prunes(v.LB, ub, collectAll) {
			// Deque residents that died to another worker's improvement:
			// incumbent discards by definition.
			stats.CountIncumbentPrune(1)
			pruned++
			np.Put(v)
			continue
		}
		scratch = append(scratch, v)
	}
	// pop returned newest-first; pushing in reverse restores the original
	// bottom-to-top order (best at the bottom, worst at the top).
	for i := len(scratch) - 1; i >= 0; i-- {
		s.pushLocal(id, d, scratch[i])
	}
	s.finish(pruned)
	return scratch
}

// splitmix64 spreads a small seed into a full-entropy xorshift state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
