package bb

import (
	"math"
	"testing"
	"time"
)

// TestExpandSteadyStateAllocations guards the pooled kernel: once a worker's
// free list is warm, an expand/release cycle allocates nothing — kept
// children come from the free list and the children slice is the pool's
// buffer. A regression that re-introduces per-child cloning or a fresh
// children slice trips this immediately.
func TestExpandSteadyStateAllocations(t *testing.T) {
	p, err := NewProblem(kernelMatrix(12), true)
	if err != nil {
		t.Fatal(err)
	}
	np := p.NewPool()
	// Walk to a mid-depth node so expansions produce a realistic fan-out.
	v := p.Root()
	for v.K < 7 {
		children := expandAll(p, v, np)
		next := children[0]
		for _, ch := range children[1:] {
			np.Put(ch)
		}
		v = next
	}
	allocs := testing.AllocsPerRun(200, func() {
		children, _ := p.Expand(v, Constraints{}, math.Inf(1), false, np)
		for _, ch := range children {
			np.Put(ch)
		}
	})
	if allocs != 0 {
		t.Fatalf("expand/release cycle allocates %.0f objects, want 0", allocs)
	}
}

// TestPrunedChildrenAllocateNothing guards the pre-clone bound check: when
// the upper bound prunes every candidate, Expand must not allocate at all —
// the bound is computed against the parent before any clone exists, and the
// max-distance sweep reuses the pool's scratch slice once it is warm.
func TestPrunedChildrenAllocateNothing(t *testing.T) {
	p, err := NewProblem(kernelMatrix(12), true)
	if err != nil {
		t.Fatal(err)
	}
	np := p.NewPool()
	v := p.Root()
	// ub = v.LB: every child has LB ≥ parent LB, so all prune (collectAll
	// off prunes lb == ub too).
	allocs := testing.AllocsPerRun(200, func() {
		children, pruned := p.Expand(v, Constraints{}, v.LB, false, np)
		if len(children) != 0 {
			t.Fatal("expected every child pruned")
		}
		if pruned.Bound == 0 {
			t.Fatal("expected a non-zero bound-pruned count")
		}
	})
	if allocs != 0 {
		t.Fatalf("fully pruned expansion allocates %.0f objects, want 0", allocs)
	}
}

// TestIntrospectionNilProbeZeroAlloc guards the uninstrumented hot path:
// with a nil probe the entire introspection layer — per-rule accounting,
// the disabled gap sampler, and the prune-stats flush — must cost zero
// allocations per search iteration, so an unprobed solve pays only the
// documented nil checks.
func TestIntrospectionNilProbeZeroAlloc(t *testing.T) {
	var s Stats
	gs := newGapSampler(nil, time.Second, time.Now())
	if gs.enabled() {
		t.Fatal("nil-probe sampler must be disabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.CountExpand(3, PruneStats{Bound: 2, ThreeThree: 1})
		s.CountIncumbentPrune(1)
		s.CountBudgetPrune(4)
		if gs.enabled() {
			gs.maybeSample(10, 5, s.Expanded, 1)
		}
		gs.sampleNow(10, 5, s.Expanded, 1)
		EmitPruneStats(nil, 0, s.Pruned, time.Second)
	})
	if allocs != 0 {
		t.Fatalf("nil-probe introspection path allocates %.0f objects per iteration, want 0", allocs)
	}
}

// TestSolveNilProbeSteadyStateAllocations pins the full uninstrumented
// solve: with the probe nil and gap sampling off, a whole sequential
// search on a warm matrix must stay within the pre-introspection
// allocation envelope (result + stack + pooled nodes), proving the new
// attribution counters add no per-node allocations.
func TestSolveNilProbeSteadyStateAllocations(t *testing.T) {
	m := kernelMatrix(9)
	opt := DefaultOptions()
	if _, err := Solve(m, opt); err != nil { // warm any lazy state
		t.Fatal(err)
	}
	base := testing.AllocsPerRun(20, func() {
		if _, err := Solve(m, opt); err != nil {
			t.Fatal(err)
		}
	})
	instr := opt
	instr.GapPeriod = time.Hour // enabled but probe is nil: must stay disabled
	with := testing.AllocsPerRun(20, func() {
		if _, err := Solve(m, instr); err != nil {
			t.Fatal(err)
		}
	})
	if with > base {
		t.Fatalf("nil-probe solve with GapPeriod set allocates %.0f objects vs %.0f baseline", with, base)
	}
}

// TestNodePoolRecyclesNodes checks the free-list round trip: a node put back
// is handed out again, and a drained pool falls back to fresh allocation.
func TestNodePoolRecyclesNodes(t *testing.T) {
	p, err := NewProblem(kernelMatrix(6), true)
	if err != nil {
		t.Fatal(err)
	}
	np := p.NewPool()
	v := p.Root()
	children, _ := p.Expand(v, Constraints{}, math.Inf(1), false, np)
	if len(children) == 0 {
		t.Fatal("no children")
	}
	recycled := children[0]
	np.Put(recycled)
	if got := np.get(p.n); got != recycled {
		t.Fatal("pool did not hand back the recycled node")
	}
	if got := np.get(p.n); got == nil || got == recycled {
		t.Fatal("drained pool must allocate a fresh node")
	}
	// A nil pool must stay usable end to end.
	var nilPool *NodePool
	if nilPool.get(p.n) == nil {
		t.Fatal("nil pool must allocate")
	}
	nilPool.Put(v) // no-op, must not panic
}
