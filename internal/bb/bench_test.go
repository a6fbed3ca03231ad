package bb

import (
	"math"
	"math/rand"
	"testing"

	"evotree/internal/matrix"
)

// kernelMatrix returns the deterministic benchmark instance for n species:
// a structureless uniform 0..100 matrix (the hardest regime for the bounds,
// so the search does real branching work at every size). Seed 3 is chosen
// so every n in {10, 13, 16} yields a non-trivial expansion count.
func kernelMatrix(n int) *matrix.Matrix {
	rng := rand.New(rand.NewSource(3))
	return matrix.Random0100(rng, n)
}

// BenchmarkSolveSequential measures the sequential branch-and-bound kernel
// end to end (problem construction excluded): ns/op, B/op and allocs/op are
// the numbers recorded in BENCH_pr2.json.
func BenchmarkSolveSequential(b *testing.B) {
	for _, n := range []int{10, 13, 16} {
		b.Run(benchName(n), func(b *testing.B) {
			p, err := NewProblem(kernelMatrix(n), true)
			if err != nil {
				b.Fatal(err)
			}
			opt := DefaultOptions()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := p.SolveSequential(opt)
				if res.Tree == nil {
					b.Fatal("nil tree")
				}
			}
		})
	}
}

// BenchmarkExpand measures one branching step at a mid-depth node: the
// per-child cost of bound computation, cloning and insertion.
func BenchmarkExpand(b *testing.B) {
	p, err := NewProblem(kernelMatrix(16), true)
	if err != nil {
		b.Fatal(err)
	}
	// Walk to a mid-depth node (K=8) along the best-child path.
	np := p.NewPool()
	v := p.Root()
	for v.K < 8 {
		v = expandAll(p, v, np)[0]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		children := expandAll(p, v, np)
		if len(children) == 0 {
			b.Fatal("no children")
		}
		releaseAll(np, children)
	}
}

// BenchmarkStepPropagate measures one search step under Propagate at a
// mid-depth node of a perturbed-clock instance, with the optimal cost as
// the incumbent: the step's propagation test and, when the node passes
// it, Expand.
func BenchmarkStepPropagate(b *testing.B) {
	m := matrix.PerturbedUltrametric(rand.New(rand.NewSource(3)), 16, 100, 0.1)
	p, err := NewProblem(m, true)
	if err != nil {
		b.Fatal(err)
	}
	ub := p.SolveSequential(DefaultOptions()).Cost
	np := p.NewPool()
	v := p.Root()
	for v.K < 8 {
		v = expandAll(p, v, np)[0]
	}
	if v.LB >= ub {
		b.Fatalf("benchmark node is pruned at pop: LB %v, incumbent %v", v.LB, ub)
	}
	st := &Step{P: p, Opt: StrongOptions(), Pool: np, Stats: &Stats{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := np.get(p.n)
		w.copyFrom(v)
		children, _ := st.Run(w, ub)
		releaseAll(np, children)
	}
}

// expandAll and releaseAll adapt the benchmarks to the kernel API so the
// same measurements can be compared across refactors of Expand.
func expandAll(p *Problem, v *PNode, np *NodePool) []*PNode {
	children, _ := p.Expand(v, Constraints{}, math.Inf(1), false, np)
	return children
}

func releaseAll(np *NodePool, children []*PNode) {
	for _, ch := range children {
		np.Put(ch)
	}
}

func benchName(n int) string {
	switch n {
	case 10:
		return "n=10"
	case 13:
		return "n=13"
	case 16:
		return "n=16"
	}
	return "n=?"
}
