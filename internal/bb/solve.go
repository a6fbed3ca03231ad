package bb

import (
	"context"
	"math"
	"time"

	"evotree/internal/matrix"
	"evotree/internal/obs"
	"evotree/internal/tree"
)

// Options configure a sequential solve.
type Options struct {
	Constraints
	// UseMaxMin applies the max–min relabeling (Step 1 of BBU). The paper
	// always enables it; it is an option here so the ablation benchmarks
	// can measure its effect.
	UseMaxMin bool
	// NoInitialUB starts the search with an infinite upper bound instead
	// of the UPGMM solution — the ablation measuring what Step 3 of BBU
	// is worth.
	NoInitialUB bool
	// Propagate enables the incremental ultrametric propagation bound:
	// every popped node is re-bounded by PropagatedLB — the three-point
	// condition of the partial tree priced against every unplaced species
	// — and pruned when the propagated floor crosses the incumbent where
	// the plain tail bound did not. Exactness-preserving on any metric;
	// costs O((n−K)·K) per pop and pays for itself by skipping whole
	// expansions (the Pruned.Ultrametric bucket measures it per run).
	Propagate bool
	// CollectAll retains every optimal tree instead of just one (Step 7 of
	// the parallel algorithm gathers all solutions).
	CollectAll bool
	// MaxNodes aborts the search after expanding this many BBT nodes when
	// positive; Result.Optimal reports false in that case. A safety valve
	// for the experiment harness.
	MaxNodes int64
	// Ctx, when non-nil, cancels the search: the solver checks it
	// periodically and returns the incumbent with Optimal=false once the
	// context is done.
	Ctx context.Context
	// Probe, when non-nil, receives typed telemetry events (search
	// start/finish, seed bound, every strict UB improvement). The nil
	// default costs the search one branch per event site.
	Probe obs.Probe
	// GapPeriod, when positive and Probe is non-nil, emits periodic
	// obs.GapSample convergence snapshots (incumbent, best open lower
	// bound, relative gap, frontier size, nodes/sec) at roughly this
	// interval, plus one initial and one terminal sample. Zero (the
	// default) disables sampling entirely, keeping the uninstrumented
	// event stream unchanged.
	GapPeriod time.Duration
}

// DefaultOptions enable the max–min relabeling and keep both 3-3 filters
// off, which makes the search exact. The companion paper enables ThreeThree
// and reports empirically unchanged results on its (near-ultrametric mtDNA)
// data; on arbitrary metrics the filter can cut an optimum, so it is opt-in
// here and exercised by the dedicated with/without experiments.
func DefaultOptions() Options {
	return Options{UseMaxMin: true}
}

// PaperOptions mirror the companion paper's configuration: max–min
// relabeling plus the 3-3 constraint at the third species.
func PaperOptions() Options {
	return Options{UseMaxMin: true, Constraints: Constraints{ThreeThree: true}}
}

// StrongOptions enable every exactness-preserving reduction: the defaults
// plus the ultrametric propagation bound.
func StrongOptions() Options {
	opt := DefaultOptions()
	opt.Propagate = true
	return opt
}

// ruleSet renders the optional search rules an Options value enables as a
// comma-joined list for the obs.SearchConfig event ("none" when every rule
// is off), in a fixed order so log lines diff cleanly.
func (opt Options) ruleSet() string {
	s := ""
	add := func(name string, on bool) {
		if !on {
			return
		}
		if s != "" {
			s += ","
		}
		s += name
	}
	add("maxmin", opt.UseMaxMin)
	add("threethree", opt.ThreeThree)
	add("threethreeall", opt.ThreeThreeAll)
	add("propagate", opt.Propagate)
	add("collectall", opt.CollectAll)
	if s == "" {
		s = "none"
	}
	return s
}

// Stats count the work a search performed. The counters satisfy the
// node-accounting identity
//
//	Generated + Roots == Expanded + Pruned.Total() + Completed
//
// on every engine, including truncated searches (abandoned nodes count as
// budget prunes) — the verification harness asserts it differentially.
type Stats struct {
	Expanded int64 // BBT nodes branched
	// Generated counts candidate children considered: survivors plus
	// every candidate a rule discarded (bound, 3-3, constraint).
	Generated int64
	Solutions int64 // complete topologies reaching the incumbent cost
	UBUpdates int64 // strict improvements of the upper bound
	// Completed counts complete topologies consumed by the search,
	// whether or not they matched the incumbent.
	Completed int64
	// Roots counts search roots seeded (one per (sub)search; the parallel
	// engine's workers share the master's single root).
	Roots      int64
	MaxPoolLen int // high-water mark of the DFS stack / frontier
	// Pruned attributes every discarded node to the rule that killed it.
	Pruned PruneStats
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Expanded += other.Expanded
	s.Generated += other.Generated
	s.Solutions += other.Solutions
	s.UBUpdates += other.UBUpdates
	s.Completed += other.Completed
	s.Roots += other.Roots
	if other.MaxPoolLen > s.MaxPoolLen {
		s.MaxPoolLen = other.MaxPoolLen
	}
	s.Pruned.Add(other.Pruned)
}

// Result is the outcome of a solve.
//
// Tree is nil only when no feasible tree is known at all: Options.NoInitialUB
// suppressed the UPGMM seed and the (possibly truncated) search found no
// complete topology. Cost is then +Inf; otherwise it is Tree's cost.
type Result struct {
	Tree    *tree.Tree   // one minimum ultrametric tree (see nil contract above)
	Trees   []*tree.Tree // all optima when Options.CollectAll
	Cost    float64      // ω of Tree
	Optimal bool         // false only when MaxNodes cut the search short
	// OpenLB is the best lower bound among the open nodes a truncated
	// search abandoned — the proof floor: the true optimum is ≥
	// min(OpenLB, Cost). +Inf when the search ran to completion (no open
	// node remains, Cost is proven optimal).
	OpenLB float64
	Stats  Stats
}

// Solve constructs a minimum ultrametric tree for m with Algorithm BBU.
func Solve(m *matrix.Matrix, opt Options) (*Result, error) {
	p, err := NewProblem(m, opt.UseMaxMin)
	if err != nil {
		return nil, err
	}
	return p.SolveSequential(opt), nil
}

// SolveSequential runs the depth-first branch-and-bound on p. The DFS
// always descends into the child with the smallest lower bound first, which
// is the paper's "get the tree for branch using DFS" on a sorted pool.
func (p *Problem) SolveSequential(opt Options) *Result {
	return p.solve(opt, false)
}

// Start opens a search on p: it emits ProblemStart and SearchConfig,
// seeds inc from the UPGMM tree as opt asks (see Incumbent.Seed) and
// emits SeedBound when the seed is finite. start is the search's clock.
func (p *Problem) Start(opt Options, start time.Time, inc *Incumbent) {
	if opt.Probe != nil {
		opt.Probe.Emit(obs.Event{Kind: obs.ProblemStart, Worker: obs.MasterWorker, N: p.n})
		// The rule set lets traces and dashboards attribute prune-rate
		// differences to the configuration that produced them.
		opt.Probe.Emit(obs.Event{Kind: obs.SearchConfig, Worker: obs.MasterWorker,
			N: p.n, Phase: opt.ruleSet()})
	}
	t, cost := p.InitialUpperBound()
	inc.Seed(t, cost, opt, start)
	if ub := inc.Bound(); opt.Probe != nil && !math.IsInf(ub, 1) {
		opt.Probe.Emit(obs.Event{Kind: obs.SeedBound, Worker: obs.MasterWorker,
			Value: ub, Elapsed: time.Since(start)})
	}
}

// solve is the sequential driver behind SolveSequential and
// SolveBestFirst: the shared Step over a DFS stack, or over an LB-ordered
// heap when bestFirst is set.
func (p *Problem) solve(opt Options, bestFirst bool) *Result {
	res := &Result{OpenLB: math.Inf(1), Optimal: true}
	start := time.Now()
	var inc Incumbent
	p.Start(opt, start, &inc)
	ub := inc.Bound()
	gs := newGapSampler(opt.Probe, opt.GapPeriod, start)
	var exitOpen int64 // nodes still open at exit (0 unless truncated)
	defer func() {
		inc.Result(res)
		if opt.Probe != nil {
			// Flush the batched prune attribution and the terminal gap
			// snapshot BEFORE ProblemFinish: consumers rely on
			// ProblemFinish staying the final event of a search.
			EmitPruneStats(opt.Probe, obs.MasterWorker, res.Stats.Pruned, time.Since(start))
			gs.sampleNow(res.Cost, res.OpenLB, res.Stats.Expanded, exitOpen)
			opt.Probe.Emit(obs.Event{Kind: obs.ProblemFinish, Worker: obs.MasterWorker,
				Value: res.Cost, Nodes: res.Stats.Expanded, Elapsed: time.Since(start)})
		}
	}()

	np := p.NewPool()
	st := &Step{P: p, Opt: opt, Pool: np, Budget: NewBudget(opt.MaxNodes), Stats: &res.Stats}
	f := frontier{best: bestFirst}
	f.push(p.Root())
	res.Stats.Roots++
	if gs.enabled() {
		gs.sampleNow(ub, f.nodes[0].LB, 0, 1)
	}
	// The cancellation gate counts loop iterations, not expansions: long
	// pruning streaks leave Stats.Expanded frozen, and gating on it would
	// either re-poll the context every iteration (Expanded%1024 stuck at
	// 0) or never poll it again (stuck at a non-zero residue).
	var iter int64
	for len(f.nodes) > 0 {
		if len(f.nodes) > res.Stats.MaxPoolLen {
			res.Stats.MaxPoolLen = len(f.nodes)
		}
		v := f.pop()
		iter++
		ok := opt.Ctx == nil || iter%1024 != 1 || opt.Ctx.Err() == nil
		if gs.enabled() && iter%1024 == 0 {
			gs.maybeSample(ub, math.Min(v.LB, minLB(f.nodes)),
				res.Stats.Expanded, int64(len(f.nodes))+1)
		}
		var children []*PNode
		if ok {
			children, ok = st.Run(v, ub)
		}
		if !ok {
			// Cancelled or out of budget: v and the frontier are
			// abandoned unexplored, and their best LB is the proof floor.
			res.Optimal = false
			exitOpen = int64(len(f.nodes)) + 1
			res.Stats.CountBudgetPrune(exitOpen)
			res.OpenLB = math.Min(v.LB, minLB(f.nodes))
			break
		}
		// Children arrive sorted by ascending LB; push in reverse so the
		// most promising child is popped first.
		for i := len(children) - 1; i >= 0; i-- {
			ch := children[i]
			switch {
			case Prunes(ch.LB, ub, opt.CollectAll):
				// An earlier sibling's solution improved ub after Expand's
				// bound check — an incumbent discard, not a bound one.
				res.Stats.CountIncumbentPrune(1)
				np.Put(ch)
			case ch.Complete(p):
				res.Stats.Completed++
				inc.Offer(p, ch, obs.MasterWorker, res.Stats.Expanded)
				ub = inc.Bound()
				np.Put(ch)
			default:
				f.push(ch)
			}
		}
	}
	return res
}

// CountTopologies returns A(n) = Π_{k=2}^{n−1} (2k−1), the number of rooted
// binary leaf-labeled topologies the search space contains, saturating at
// math.MaxFloat64.
func CountTopologies(n int) float64 {
	a := 1.0
	for k := 2; k < n; k++ {
		a *= float64(2*k - 1)
		if math.IsInf(a, 1) {
			return math.MaxFloat64
		}
	}
	return a
}
