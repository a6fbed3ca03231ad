package main

import (
	"fmt"
	"math"
	"time"

	"evotree/internal/bb"
	"evotree/internal/matrix"
	"evotree/internal/pbb"
	"evotree/internal/upgma"
)

// searchTally sums the search statistics of several solves. solveTime is
// their wall time when the solves ran one after another; it stays 0 for
// solves that overlap (subproblems inside one core.Construct), and then
// bb.nodes_per_s comes from the sequential baseline instead.
type searchTally struct {
	solves    int
	stats     bb.Stats
	sched     pbb.SchedStats
	solveTime time.Duration
}

func (s *searchTally) add(st bb.Stats, sched pbb.SchedStats, d time.Duration) {
	s.solves++
	s.stats.Add(st)
	s.sched.Add(sched)
	s.solveTime += d
}

func (s *searchTally) into(lv layerValues) {
	if s.solves == 0 {
		return
	}
	per := func(v int64) float64 { return float64(v) / float64(s.solves) }
	st := s.stats
	lv["bb.expanded"] = per(st.Expanded)
	if s.solveTime > 0 {
		lv["bb.nodes_per_s"] = float64(st.Expanded) / s.solveTime.Seconds()
	}
	lv["bb.prune_ratio"] = ratio(float64(st.Pruned.Total()), float64(st.Generated+st.Roots))
	lv["bb.pruned.bound"] = per(st.Pruned.Bound)
	lv["bb.pruned.incumbent"] = per(st.Pruned.Incumbent)
	lv["bb.pruned.ultrametric"] = per(st.Pruned.Ultrametric)
	lv["bb.pruned.dominance"] = per(st.Pruned.Dominance)
	lv["pbb.steals"] = per(s.sched.Steals)
	lv["pbb.parks"] = per(s.sched.Parks)
	lv["pbb.donates"] = per(s.sched.Donates)
}

// seqSolveAll solves every B&B input once with the sequential engine, the
// single-threaded baseline (bb.seq_batch_s). It returns the time, the
// summed statistics and each optimum.
func seqSolveAll(mats []*matrix.Matrix, opt bb.Options, t *tally) (time.Duration, bb.Stats, []float64) {
	costs := make([]float64, len(mats))
	var total time.Duration
	var st bb.Stats
	for i, m := range mats {
		start := time.Now()
		res, err := bb.Solve(m, opt)
		total += time.Since(start)
		if err != nil {
			t.check(err)
			continue
		}
		costs[i] = res.Cost
		st.Add(res.Stats)
	}
	return total, st, costs
}

// kernelSample is one search node captured mid-search, with the incumbent
// bound that was current when the search popped it.
type kernelSample struct {
	p        *bb.Problem
	np       *bb.NodePool
	v        *bb.PNode
	ub       float64
	expanded bool // false when PropagatedLB pruned it instead
}

// replay runs the sequential depth-first search from outside, through
// bb's exported Root/Expand/PropagatedLB/NodePool API and in
// SolveSequential's order, and keeps every stride-th node that reaches the
// propagation check. Kept nodes are never returned to the pool, so they
// stay intact for timing. It returns the optimum it found.
func replay(m *matrix.Matrix, opt bb.Options, stride int64, seen *int64, keep *[]kernelSample) (float64, error) {
	p, err := bb.NewProblem(m, opt.UseMaxMin)
	if err != nil {
		return 0, err
	}
	np := p.NewPool()
	_, ub := p.InitialUpperBound()
	stack := []*bb.PNode{p.Root()}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v.LB >= ub {
			np.Put(v)
			continue
		}
		*seen++
		sampled := *seen%stride == 0
		pruned := opt.Propagate && p.PropagatedLB(v, np) >= ub
		if sampled {
			*keep = append(*keep, kernelSample{p: p, np: np, v: v, ub: ub, expanded: !pruned})
		}
		var children []*bb.PNode
		if !pruned {
			children, _ = p.Expand(v, opt.Constraints, ub, false, np)
		}
		if !sampled {
			np.Put(v)
		}
		for i := len(children) - 1; i >= 0; i-- {
			ch := children[i]
			switch {
			case ch.LB >= ub:
				np.Put(ch)
			case ch.Complete(p):
				ub = ch.Cost
				np.Put(ch)
			default:
				stack = append(stack, ch)
			}
		}
	}
	return ub, nil
}

// kernelSamplesWanted is how many nodes the replay keeps across a batch.
const kernelSamplesWanted = 2048

// minTimed is the least time a timing loop runs before it divides by the
// calls made, so each figure rests on many calls and few clock reads.
const minTimed = 150 * time.Millisecond

// kernel replays the search on every B&B input, then times Expand (and,
// when opt.Propagate is set, PropagatedLB) over the kept nodes in whole
// batches of calls (the clock is read once per batch, never per node). expectedPops sizes the sampling
// stride. It fills the bb kernel metrics, checks each replayed optimum
// against its reference, and returns how many nodes it kept.
func kernel(mats []*matrix.Matrix, refs []float64, opt bb.Options, expectedPops int64, lv layerValues, t *tally) int {
	stride := max(1, expectedPops/kernelSamplesWanted)
	var seen int64
	var samples []kernelSample
	for i, m := range mats {
		got, err := replay(m, opt, stride, &seen, &samples)
		if err != nil {
			t.check(err)
			continue
		}
		t.check(sameCost("kernel replay", got, refs[i]))
	}
	var expandable []kernelSample
	for _, s := range samples {
		if s.expanded {
			expandable = append(expandable, s)
		}
	}
	if len(expandable) > 0 {
		lv["bb.expand_ns"], lv["bb.children_per_expand"] = timeGrouped(expandable, func(s kernelSample) int {
			kids, _ := s.p.Expand(s.v, opt.Constraints, s.ub, false, s.np)
			for _, k := range kids {
				s.np.Put(k)
			}
			return len(kids)
		})
	}
	if opt.Propagate && len(samples) > 0 {
		lv["bb.propagated_lb_ns"], lv["bb.propagate_prune_ratio"] = timeGrouped(samples, func(s kernelSample) int {
			if s.p.PropagatedLB(s.v, s.np) >= s.ub {
				return 1
			}
			return 0
		})
	}
	return len(samples)
}

// timeGrouped times call over the samples the way a search meets them:
// one problem at a time, each problem's samples called reps times over
// before the next problem's, so its matrix and nodes sit in cache as they
// do mid-solve (timing the whole mixed set in one sweep reads every
// problem cold and overstates the kernel by about half). A first, untimed
// pass warms up, sets reps so the timed loop lasts at least minTimed, and
// averages call's result. It returns nanoseconds per call and that mean.
func timeGrouped(samples []kernelSample, call func(kernelSample) int) (float64, float64) {
	start := time.Now()
	sum := 0
	for _, s := range samples {
		sum += call(s)
	}
	reps := max(1, int(minTimed/max(time.Since(start), time.Microsecond)))
	start = time.Now()
	for lo := 0; lo < len(samples); {
		hi := lo
		for hi < len(samples) && samples[hi].p == samples[lo].p {
			hi++
		}
		for r := 0; r < reps; r++ {
			for _, s := range samples[lo:hi] {
				call(s)
			}
		}
		lo = hi
	}
	ns := float64(time.Since(start)) / float64(reps*len(samples))
	return ns, float64(sum) / float64(len(samples))
}

// perCallUS times fn over every input in whole passes, for at least
// minTimed, and returns the mean microseconds per call.
func perCallUS[T any](inputs []T, fn func(T)) float64 {
	if len(inputs) == 0 {
		return 0
	}
	calls := 0
	start := time.Now()
	for time.Since(start) < minTimed {
		for _, in := range inputs {
			fn(in)
		}
		calls += len(inputs)
	}
	return float64(time.Since(start)) / float64(time.Microsecond) / float64(calls)
}

// searchSetupLayers times the two calls every B&B search starts with:
// bb.NewProblem and the UPGMM seed bound. Every input already passed
// NewProblem in setup, so the timing loop drops its error.
func searchSetupLayers(mats []*matrix.Matrix, lv layerValues) {
	lv["bb.new_problem_us"] = perCallUS(mats, func(m *matrix.Matrix) { _, _ = bb.NewProblem(m, true) })
	lv["upgma.upgmm_us"] = perCallUS(mats, func(m *matrix.Matrix) { upgma.UPGMM(m) })
}

// sameCost reports a cost that differs from its reference by more than
// floating-point summation order can explain.
func sameCost(what string, got, want float64) error {
	if math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want)) {
		return nil
	}
	return fmt.Errorf("%s: cost %v, reference %v", what, got, want)
}
