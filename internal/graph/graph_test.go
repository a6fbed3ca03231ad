package graph

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"evotree/internal/matrix"
	"evotree/internal/seqsim"
)

// completeEdges returns every unordered pair of vertices of w as an edge,
// sorted by SortEdges: the input of the reference Kruskal.
func completeEdges(w Weights) []Edge {
	n := w.Len()
	edges := make([]Edge, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, Edge{U: i, V: j, Weight: w.Row(i)[j]})
		}
	}
	SortEdges(edges)
	return edges
}

// kruskal is the reference MST: Kruskal's algorithm over all pairs, with
// the edges in the order it accepts them. comp labels each vertex with its
// component, and a merge relabels one side.
func kruskal(w Weights) []Edge {
	n := w.Len()
	comp := make([]int, n)
	for v := range comp {
		comp[v] = v
	}
	out := make([]Edge, 0, n-1)
	for _, e := range completeEdges(w) {
		if cu, cv := comp[e.U], comp[e.V]; cu != cv {
			for v := range comp {
				if comp[v] == cv {
					comp[v] = cu
				}
			}
			out = append(out, e)
			if len(out) == n-1 {
				break
			}
		}
	}
	return out
}

func TestCompleteEdgesSorted(t *testing.T) {
	m := matrix.New(4)
	m.Set(0, 1, 5)
	m.Set(0, 2, 1)
	m.Set(0, 3, 5) // tie with (0,1)
	m.Set(1, 2, 3)
	m.Set(1, 3, 2)
	m.Set(2, 3, 4)
	edges := completeEdges(m)
	if len(edges) != 6 {
		t.Fatalf("%d edges", len(edges))
	}
	for i := 1; i < len(edges); i++ {
		if edges[i].Weight < edges[i-1].Weight {
			t.Fatal("edges not sorted")
		}
	}
	// Deterministic tie break: (0,1) before (0,3).
	if edges[4].U != 0 || edges[4].V != 1 || edges[5].V != 3 {
		t.Fatalf("tie break wrong: %v", edges[4:])
	}
}

func TestMSTAgainstBruteForce(t *testing.T) {
	// On distinct, heavily tied and perturbed-ultrametric weights, and on
	// weights drawn from 1 to 6 values, where the (U, V) tie break decides
	// most of the tree, MST returns exactly the edges Kruskal over all
	// pairs accepts, in the same order, whatever order it visits the
	// vertices in.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		var m *matrix.Matrix
		switch rng.Intn(4) {
		case 0:
			m = matrix.RandomMetric(rng, n, 1, 100)
		case 1:
			m = matrix.RandomMetric(rng, n, 1, 4) // heavy ties
		case 2:
			m = matrix.PerturbedUltrametric(rng, n, 100, 0.2)
		default:
			levels := 1 + rng.Intn(6)
			m = matrix.New(n)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					m.Set(i, j, float64(1+rng.Intn(levels)))
				}
			}
		}
		mst, err := MST(m)
		if err != nil || len(mst) != n-1 {
			return false
		}
		return reflect.DeepEqual(mst, kruskal(m))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestPrimOrder checks what compact-set detection reads off Prim's
// joining order, on the weight families of TestMSTAgainstBruteForce and
// on the all-equal, two-valued and scaled matrices of the compact
// reference tests. Prim's steps are the MST's edges. Every component that
// Kruskal's walk forms, and so every candidate the reference compact-set
// finder tests and every set it reports, is a contiguous run l..r of the
// order, and its cut weight Min(C, V∖C) is the lighter of the edges that
// join positions l and r+1, +Inf past either end.
func TestPrimOrder(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		var m *matrix.Matrix
		switch rng.Intn(7) {
		case 0:
			m = matrix.RandomMetric(rng, n, 1, 100)
		case 1:
			m = matrix.RandomMetric(rng, n, 1, 4) // heavy ties
		case 2:
			m = matrix.PerturbedUltrametric(rng, n, 100, 0.2)
		case 3:
			m = matrix.RandomMetric(rng, n, 50, 100)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					m.Set(i, j, 0.1*m.At(i, j))
				}
			}
		default:
			levels := 1 + rng.Intn(6) // one level is all-equal, two two-valued
			m = matrix.New(n)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					m.Set(i, j, float64(1+rng.Intn(levels)))
				}
			}
		}
		if err := primOrderHolds(m); err != nil {
			t.Errorf("seed %d, n=%d: %v", seed, n, err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{400, 600} {
		if err := primOrderHolds(seqsimMatrix(t, int64(n), n)); err != nil {
			t.Fatalf("seqsim n=%d: %v", n, err)
		}
	}
}

// primOrderHolds checks TestPrimOrder's three facts on m.
func primOrderHolds(m *matrix.Matrix) error {
	n := m.Len()
	order, pos := []int{0}, make([]int, n)
	edges := make([]Edge, 1, n) // edges[j] joined order[j]; edges[0] is unused
	var bad error
	Prim(m, func(v, from int, weight float64) {
		if order[pos[from]] != from || m.At(v, from) != weight {
			bad = fmt.Errorf("vertex %d joins from %d at %v, which is not a tree vertex or not the edge's weight", v, from, weight)
		}
		pos[v] = len(order)
		order = append(order, v)
		edges = append(edges, Edge{U: min(v, from), V: max(v, from), Weight: weight})
	})
	if bad != nil {
		return bad
	}
	if len(order) != n {
		return fmt.Errorf("Prim joined %d of %d vertices", len(order), n)
	}
	tree := slices.Clone(edges[1:])
	SortEdges(tree)
	if want := kruskal(m); !reflect.DeepEqual(tree, want) {
		return fmt.Errorf("Prim's steps %v are not the MST %v", tree, want)
	}
	// Replay Kruskal's walk with member lists and test each component.
	comp, members := make([]int, n), make([][]int, n)
	for v := range comp {
		comp[v], members[v] = v, []int{v}
	}
	for _, e := range tree {
		a, b := comp[e.U], comp[e.V]
		for _, v := range members[b] {
			comp[v] = a
		}
		members[a], members[b] = append(members[a], members[b]...), nil
		c := members[a]
		l, r := n, -1
		for _, v := range c {
			l, r = min(l, pos[v]), max(r, pos[v])
		}
		if r-l+1 != len(c) {
			return fmt.Errorf("component %v spans positions %d..%d of Prim's order", c, l, r)
		}
		cut, in := math.Inf(1), make([]bool, n)
		for _, v := range c {
			in[v] = true
		}
		for _, x := range c {
			for y := 0; y < n; y++ {
				if !in[y] {
					cut = min(cut, m.At(x, y))
				}
			}
		}
		want := math.Inf(1)
		if l > 0 {
			want = edges[l].Weight
		}
		if r+1 < n {
			want = min(want, edges[r+1].Weight)
		}
		if cut != want {
			return fmt.Errorf("component %v at positions %d..%d has cut weight %v, bounding edges give %v", c, l, r, cut, want)
		}
	}
	return nil
}

func TestMSTEmpty(t *testing.T) {
	if _, err := MST(matrix.New(0)); err == nil {
		t.Fatal("want error for empty graph")
	}
	mst, err := MST(matrix.New(1))
	if err != nil || len(mst) != 0 {
		t.Fatalf("n=1: %v %v", mst, err)
	}
}

func TestMSTKruskalOrderAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := matrix.RandomMetric(rng, 10, 1, 100)
	mst, err := MST(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(mst); i++ {
		if mst[i].Weight < mst[i-1].Weight {
			t.Fatal("Kruskal acceptance order must be ascending")
		}
	}
}

// seqsimMatrix is an mtDNA-like Hamming matrix over n species: integer
// distances in a narrow range, so ties are everywhere.
func seqsimMatrix(t *testing.T, seed int64, n int) *matrix.Matrix {
	t.Helper()
	ds, err := seqsim.Generate(rand.New(rand.NewSource(seed)), seqsim.Params{Species: n, SeqLen: 150, Rate: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	return ds.Matrix
}

func TestMSTMatchesKruskalOnSeqsim(t *testing.T) {
	for _, n := range []int{400, 600} {
		m := seqsimMatrix(t, int64(n), n)
		mst, err := MST(m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(mst, kruskal(m)) {
			t.Fatalf("n=%d: MST differs from Kruskal over all pairs", n)
		}
	}
}

// TestMSTAlloc bounds the bytes MST allocates at n=600: the tree and O(n)
// scratch, never the n(n−1)/2 edge list (4.3 MB at this size).
func TestMSTAlloc(t *testing.T) {
	m := seqsimMatrix(t, 1, 600)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := MST(m)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("MST allocated %d bytes at n=600, want < %d", got, 64<<10)
	}
}
