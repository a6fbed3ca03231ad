package graph

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"evotree/internal/matrix"
	"evotree/internal/seqsim"
)

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(5)
	if !uf.Union(0, 1) {
		t.Fatal("first union must merge")
	}
	if uf.Union(1, 0) {
		t.Fatal("repeated union must not merge")
	}
	uf.Union(2, 3)
	uf.Union(0, 3)
	if uf.Find(1) != uf.Find(2) {
		t.Fatal("1 and 2 must share a set")
	}
	if uf.Find(4) == uf.Find(0) {
		t.Fatal("4 must be separate")
	}
}

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
// the edges in the order it accepts them.
func kruskal(w Weights) []Edge {
	n := w.Len()
	uf := NewUnionFind(n)
	out := make([]Edge, 0, n-1)
	for _, e := range completeEdges(w) {
		if uf.Union(e.U, e.V) {
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
