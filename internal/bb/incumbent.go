package bb

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"evotree/internal/obs"
	"evotree/internal/tree"
)

// Incumbent is the one place a search records complete topologies: the
// upper bound every searcher prunes against, the tree at that bound, the
// tied optima under Options.CollectAll, and the Solutions and UBUpdates
// counts. The sequential driver, pbb's master and workers, and the farm
// coordinator (one per matrix) all offer through it, so the tie rule and
// the UPGMM fallback are written once.
//
// The bound is published as atomic float64 bits plus an epoch counter:
// Bound and Epoch are one atomic load each, so searchers read the
// incumbent on the hot path without taking a lock, and watch the epoch to
// notice another searcher's improvement. The mutex serializes offers at
// or below the bound, a rare event. An Incumbent is seeded once, before it
// is shared, and must not be copied after that.
type Incumbent struct {
	bits  atomic.Uint64 // math.Float64bits of the bound
	epoch atomic.Uint64 // bumped on every strict improvement

	mu    sync.Mutex
	ub    float64 // authoritative bound, mirrors bits (guarded by mu)
	tree  *tree.Tree
	trees []*tree.Tree
	// seed is the seed tree while it heads trees: the search enumerates
	// every topology once, so the one tie with its topology is the seed
	// found again and is counted but not collected twice.
	seed *tree.Tree
	// fallback is the feasible UPGMM tree, reported at its own cost when
	// nothing beats an external InitialUB; nil under NoInitialUB.
	fallback     *tree.Tree
	fallbackCost float64
	solutions    int64
	updates      int64
	collectAll   bool
	probe        obs.Probe // emitted to under mu, so UB events are ordered
	start        time.Time
}

// Seed readies c for a search whose feasible starting tree is t at cost
// (Step 3 of BBU): the bound is cost, or a tighter opt.InitialUB with t
// kept as the fallback Result reports, or +Inf with no tree under
// opt.NoInitialUB. Offers keep every optimum when opt.CollectAll is set
// and report to opt.Probe, timed from start. Seed is called once, on a
// zero Incumbent, before the incumbent is shared.
func (c *Incumbent) Seed(t *tree.Tree, cost float64, opt Options, start time.Time) {
	c.collectAll, c.probe, c.start = opt.CollectAll, opt.Probe, start
	c.ub, c.tree, c.fallback, c.fallbackCost = cost, t, t, cost
	if opt.NoInitialUB {
		c.ub, c.tree, c.fallback = math.Inf(1), nil, nil
	}
	if opt.InitialUB > 0 && opt.InitialUB < c.ub {
		// Search against the tighter externally supplied bound; no tree
		// attains it yet.
		c.ub, c.tree = opt.InitialUB, nil
	}
	if c.collectAll && c.tree != nil {
		c.seed = c.tree
		c.trees = []*tree.Tree{c.tree}
	}
	c.bits.Store(math.Float64bits(c.ub))
}

// Bound returns the current upper bound: one atomic load, no lock.
func (c *Incumbent) Bound() float64 {
	return math.Float64frombits(c.bits.Load())
}

// Epoch returns the number of strict improvements so far. The bound is
// stored before the epoch is bumped, so a reader that sees a new epoch
// reads a bound at least as tight on its next Bound call.
func (c *Incumbent) Epoch() uint64 {
	return c.epoch.Load()
}

// Offer records the complete topology v of p and reports whether it
// improved the bound — the paper's "update the GUB to every node". A
// strict improvement tightens and publishes the bound, bumps the epoch,
// restarts the solution count and the CollectAll list, and emits
// UBImproved. A tie is counted, kept under CollectAll, becomes the tree
// when none attains the bound yet (an InitialUB seed), and emits
// SolutionFound. An offer above the bound returns without taking the
// lock. worker and nodes (the finder's expansion count) label the event;
// it is emitted under the lock, so UBImproved values strictly decrease
// even when several searchers offer at once.
func (c *Incumbent) Offer(p *Problem, v *PNode, worker int, nodes int64) bool {
	if v.Cost > c.Bound() {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case v.Cost < c.ub:
		c.ub = v.Cost
		c.bits.Store(math.Float64bits(v.Cost))
		c.epoch.Add(1)
		c.tree = v.Tree(p)
		c.updates++
		c.solutions = 1
		c.seed = nil
		if c.collectAll {
			c.trees = append(c.trees[:0], c.tree)
		}
		if c.probe != nil {
			c.probe.Emit(obs.Event{Kind: obs.UBImproved, Worker: worker,
				Value: v.Cost, Nodes: nodes, Elapsed: time.Since(c.start)})
		}
		return true
	case v.Cost == c.ub:
		c.solutions++
		if c.collectAll || c.tree == nil {
			t := v.Tree(p)
			if c.tree == nil {
				c.tree = t
			}
			if c.collectAll && !c.seedAgain(t) {
				c.trees = append(c.trees, t)
			}
		}
		if c.probe != nil {
			c.probe.Emit(obs.Event{Kind: obs.SolutionFound, Worker: worker,
				Value: v.Cost, Nodes: nodes, Elapsed: time.Since(c.start)})
		}
	}
	return false
}

// seedAgain reports whether t is the seed tree's topology, which the
// list already holds, and stops looking once it has been found. Caller
// holds c.mu.
func (c *Incumbent) seedAgain(t *tree.Tree) bool {
	if c.seed == nil {
		return false
	}
	if d, _, err := tree.RobinsonFoulds(c.seed, t); err != nil || d != 0 {
		return false
	}
	c.seed = nil
	return true
}

// Result writes the search's outcome into res: Tree and Cost, the
// CollectAll list, and the Solutions and UBUpdates counts. When nothing
// beat an external InitialUB, the tree is the UPGMM fallback at its own
// cost, so Tree and Cost agree (see Result).
func (c *Incumbent) Result(res *Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res.Tree, res.Cost = c.tree, c.ub
	if c.tree == nil && c.fallback != nil {
		res.Tree, res.Cost = c.fallback, c.fallbackCost
	}
	res.Trees = c.trees
	res.Stats.Solutions = c.solutions
	res.Stats.UBUpdates = c.updates
}
