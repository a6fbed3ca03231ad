package nj

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"evotree/internal/matrix"
	"evotree/internal/seqsim"
)

// additiveFromTree builds an exactly additive matrix from a random clock
// tree (ultrametric distances are additive too).
func additiveFromTree(rng *rand.Rand, n int) *matrix.Matrix {
	tr := seqsim.CoalescentTree(rng, n)
	m := matrix.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, tr.Dist(i, j))
		}
	}
	return m
}

func TestRecoversAdditiveDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(10)
		m := additiveFromTree(rng, n)
		tr, err := Build(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if got, want := tr.PathDist(i, j), m.At(i, j); math.Abs(got-want) > 1e-6*(1+want) {
					t.Fatalf("trial %d: d_T(%d,%d) = %g, want %g", trial, i, j, got, want)
				}
			}
		}
	}
}

// leafCount returns the number of leaves of t.
func leafCount(t *Tree) int {
	c := 0
	for i := range t.Nodes {
		if t.Nodes[i].Species >= 0 {
			c++
		}
	}
	return c
}

func TestLeafCountAndStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		m := matrix.RandomMetric(r, n, 50, 100)
		tr, err := Build(m)
		if err != nil {
			return false
		}
		if leafCount(tr) != n {
			return false
		}
		// Every non-root node must have a parent; edge lengths
		// non-negative.
		for i, nd := range tr.Nodes {
			if i != tr.Root && nd.Parent == NoNode {
				return false
			}
			if nd.EdgeLen < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestPathDistSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	m := matrix.RandomMetric(rng, 8, 50, 100)
	tr, err := Build(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i == j {
				continue
			}
			if a, b := tr.PathDist(i, j), tr.PathDist(j, i); math.Abs(a-b) > 1e-9 {
				t.Fatalf("asymmetric path dist %g vs %g", a, b)
			}
		}
	}
}

func TestEmptyAndSingle(t *testing.T) {
	if _, err := Build(matrix.New(0)); err == nil {
		t.Fatal("want error on empty matrix")
	}
	tr, err := Build(matrix.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if leafCount(tr) != 1 {
		t.Fatal("single species tree")
	}
}

func TestTotalLengthPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	m := matrix.RandomMetric(rng, 10, 50, 100)
	tr, err := Build(m)
	if err != nil {
		t.Fatal(err)
	}
	if tr.TotalLength() <= 0 {
		t.Fatalf("total length %g", tr.TotalLength())
	}
}
