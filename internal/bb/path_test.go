package bb

import (
	"math"
	"math/rand"
	"testing"

	"evotree/internal/matrix"
)

// TestPathRoundTrip replays Path()/WalkPath over every node of a small
// exhaustive search: each node rebuilt from its own path must be
// bit-identical (cost, LB, topology heights) to the original.
func TestPathRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8801))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(4)
		m := matrix.Random0100(rng, n)
		p, err := NewProblem(m, true)
		if err != nil {
			t.Fatal(err)
		}
		np := p.NewPool()
		checked := 0
		var rec func(v *PNode)
		rec = func(v *PNode) {
			got, err := p.WalkPath(v.Path(), np)
			if err != nil {
				t.Fatalf("n=%d: WalkPath(%v): %v", n, v.Path(), err)
			}
			if got.K != v.K || got.Cost != v.Cost || got.LB != v.LB || got.root != v.root {
				t.Fatalf("n=%d path %v: rebuilt (K=%d cost=%v lb=%v root=%d) != original (K=%d cost=%v lb=%v root=%d)",
					n, v.Path(), got.K, got.Cost, got.LB, got.root, v.K, v.Cost, v.LB, v.root)
			}
			for i := 0; i < 2*v.K-1; i++ {
				if got.parent[i] != v.parent[i] || got.height[i] != v.height[i] {
					t.Fatalf("n=%d path %v: node %d differs", n, v.Path(), i)
				}
			}
			np.Put(got)
			checked++
			if v.Complete(p) || checked > 500 {
				return
			}
			for pos := 0; pos < v.Positions(); pos++ {
				c, err := p.Child(v, pos, np)
				if err != nil {
					t.Fatal(err)
				}
				rec(c)
			}
		}
		rec(p.Root())
	}
}

// TestWalkPathRejectsMalformed exercises the validation a coordinator
// relies on when decoding wire units from untrusted workers.
func TestWalkPathRejectsMalformed(t *testing.T) {
	m := matrix.Random0100(rand.New(rand.NewSource(1)), 6)
	p, err := NewProblem(m, true)
	if err != nil {
		t.Fatal(err)
	}
	np := p.NewPool()
	for _, path := range [][]int{
		{-1},              // negative position
		{3},               // root has 3 positions: 0..2
		{0, 0, 0, 0, 0},   // too long: n−2 = 4 entries max
		{2, 7},            // second insertion has 5 positions: 0..4
		{0, 0, 0, 0, 999}, // far out of range
	} {
		if _, err := p.WalkPath(path, np); err == nil {
			t.Errorf("WalkPath(%v) accepted a malformed path", path)
		}
	}
	// The full-length valid path must decode to a complete topology.
	v, err := p.WalkPath([]int{0, 1, 2, 3}, np)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Complete(p) {
		t.Fatalf("full-length path decoded to K=%d, want complete", v.K)
	}
	if math.IsNaN(v.Cost) || v.Cost <= 0 {
		t.Fatalf("decoded cost %v", v.Cost)
	}
}
