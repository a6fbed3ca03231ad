package bb

import (
	"math"
	"time"

	"evotree/internal/obs"
)

// PruneStats attributes every discarded search node to the rule that
// killed it — the measurement layer behind "which bound is earning its
// keep". Six rules partition all discards:
//
//   - Bound: children killed at generation time because their lower bound
//     could not beat the upper bound current at that moment (Expand's
//     pre-clone check).
//   - Incumbent: nodes that entered a pool/frontier/deque while viable
//     and were discarded later because the incumbent improved in the
//     meantime (the step's pop-time re-check, re-checks after a sibling's
//     offer, the parallel engine's lazy deque re-prunes).
//   - ThreeThree: insertion positions excluded by the third-species 3-3
//     relation.
//   - Constraint: children dropped by the generalized per-insertion 3-3
//     feasibility filter (Constraints.ThreeThreeAll).
//   - Ultrametric: nodes killed at pop time because the incremental
//     ultrametric propagation bound (PropagatedLB) crossed the incumbent
//     where the plain tail bound did not (Options.Propagate).
//   - Budget: nodes abandoned unexplored when MaxNodes or a context
//     cancellation truncated the search.
//
// Together with Stats.Completed and Stats.Roots the rules close the
// node-accounting identity that the verification harness asserts on every
// engine:
//
//	Generated + Roots == Expanded + Pruned.Total() + Completed
type PruneStats struct {
	Bound       int64
	Incumbent   int64
	ThreeThree  int64
	Constraint  int64
	Ultrametric int64
	// Dominance is always zero: no rule feeds it. It is kept only because
	// perfbench's replay reads it (bb.pruned.dominance), and it takes no
	// part in Add, Total or ByRule.
	Dominance int64
	Budget    int64
}

// Add accumulates other into p.
func (p *PruneStats) Add(other PruneStats) {
	p.Bound += other.Bound
	p.Incumbent += other.Incumbent
	p.ThreeThree += other.ThreeThree
	p.Constraint += other.Constraint
	p.Ultrametric += other.Ultrametric
	p.Budget += other.Budget
}

// Total is the number of nodes discarded by any rule.
func (p PruneStats) Total() int64 {
	return p.Bound + p.Incumbent + p.ThreeThree + p.Constraint +
		p.Ultrametric + p.Budget
}

// ByRule returns the counter for an obs.Rule* name (0 for unknown names).
func (p PruneStats) ByRule(rule string) int64 {
	switch rule {
	case obs.RuleBound:
		return p.Bound
	case obs.RuleIncumbent:
		return p.Incumbent
	case obs.RuleThreeThree:
		return p.ThreeThree
	case obs.RuleConstraint:
		return p.Constraint
	case obs.RuleUltrametric:
		return p.Ultrametric
	case obs.RuleBudget:
		return p.Budget
	}
	return 0
}

// CountExpand folds one Expand call into the statistics: kept children
// plus every discarded candidate count as Generated, and the discards are
// attributed per rule.
func (s *Stats) CountExpand(kept int, pruned PruneStats) {
	s.Generated += int64(kept) + pruned.Total()
	s.Pruned.Add(pruned)
}

// CountIncumbentPrune attributes n discards of previously viable pool
// nodes to an incumbent improvement.
func (s *Stats) CountIncumbentPrune(n int64) {
	s.Pruned.Incumbent += n
}

// CountUltrametricPrune attributes n pop-time discards to the ultrametric
// propagation bound.
func (s *Stats) CountUltrametricPrune(n int64) {
	s.Pruned.Ultrametric += n
}

// CountBudgetPrune attributes n abandoned nodes to search truncation
// (MaxNodes or context cancellation).
func (s *Stats) CountBudgetPrune(n int64) {
	s.Pruned.Budget += n
}

// EmitPruneStats flushes a per-rule prune attribution block as batched
// obs.Prune events — one event per nonzero rule, nothing for an all-zero
// block, nothing for a nil probe. Engines call it once per search
// (sequential) or once per worker (parallel) before ProblemFinish, so the
// prune hot paths never touch the probe.
func EmitPruneStats(p obs.Probe, worker int, ps PruneStats, elapsed time.Duration) {
	if p == nil {
		return
	}
	for _, rule := range obs.Rules {
		if n := ps.ByRule(rule); n > 0 {
			p.Emit(obs.Event{Kind: obs.Prune, Worker: worker, Phase: rule,
				Nodes: n, Elapsed: elapsed})
		}
	}
}

// gapSampler emits periodic obs.GapSample convergence snapshots for the
// sequential engines, inline from the search loop (no goroutine: the loop
// owns the frontier, so the open-LB minimum is exact and race-free). The
// zero value is disabled; every method is allocation-free so the
// uninstrumented path costs one nil/period check.
type gapSampler struct {
	probe     obs.Probe
	period    time.Duration
	start     time.Time
	last      time.Time
	lastNodes int64
}

// newGapSampler returns a sampler, enabled only when the probe is live
// and the period positive.
func newGapSampler(probe obs.Probe, period time.Duration, start time.Time) gapSampler {
	if probe == nil || period <= 0 {
		return gapSampler{}
	}
	return gapSampler{probe: probe, period: period, start: start, last: start}
}

func (g *gapSampler) enabled() bool { return g.probe != nil }

// maybeSample emits a snapshot when at least one period elapsed since the
// previous one. Callers gate it to every ~1024 loop iterations, so the
// time.Since cost is amortized away.
func (g *gapSampler) maybeSample(ub, bestLB float64, expanded, frontier int64) {
	if g.probe == nil {
		return
	}
	now := time.Now()
	dt := now.Sub(g.last)
	if dt < g.period {
		return
	}
	rate := float64(expanded-g.lastNodes) / dt.Seconds()
	g.last, g.lastNodes = now, expanded
	g.emit(ub, bestLB, expanded, frontier, rate, now)
}

// sampleNow emits unconditionally — the initial snapshot after seeding
// and the terminal snapshot before ProblemFinish, so every instrumented
// search yields at least two samples no matter how fast it finishes.
func (g *gapSampler) sampleNow(ub, bestLB float64, expanded, frontier int64) {
	if g.probe == nil {
		return
	}
	now := time.Now()
	var rate float64
	if dt := now.Sub(g.last); dt > 0 {
		rate = float64(expanded-g.lastNodes) / dt.Seconds()
	}
	g.last, g.lastNodes = now, expanded
	g.emit(ub, bestLB, expanded, frontier, rate, now)
}

func (g *gapSampler) emit(ub, bestLB float64, expanded, frontier int64, rate float64, now time.Time) {
	//evovet:ignore probeguard both callers (maybeSample, sampleNow) return early when g.probe is nil
	g.probe.Emit(obs.Event{
		Kind:     obs.GapSample,
		Worker:   obs.MasterWorker,
		Value:    ub,
		BestLB:   bestLB,
		Gap:      obs.GapRatio(ub, bestLB),
		Rate:     rate,
		Nodes:    expanded,
		Frontier: frontier,
		Elapsed:  now.Sub(g.start),
	})
}

// minLB returns the smallest lower bound among nodes, +Inf for none —
// the exact best-open-LB of a sequential frontier at sample time.
func minLB(nodes []*PNode) float64 {
	best := math.Inf(1)
	for _, v := range nodes {
		if v.LB < best {
			best = v.LB
		}
	}
	return best
}
