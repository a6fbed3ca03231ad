package bb

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"evotree/internal/matrix"
)

// referenceTables builds NewProblem's tables the direct way: relabel m into
// a permuted copy, read the distances out of it, and find the twin classes
// on the copy.
func referenceTables(m *matrix.Matrix, useMaxMin bool) *Problem {
	n := m.Len()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	if useMaxMin {
		perm = m.MaxMinPermutation()
	}
	pm := m.Relabel(perm)
	p := &Problem{n: n, d: make([]float64, n*n), perm: perm, names: m.Names()}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p.d[i*n+j] = pm.At(i, j)
		}
	}
	p.tail = make([]float64, n+1)
	for i := n - 1; i >= 2; i-- {
		minD := math.Inf(1)
		for j := 0; j < i; j++ {
			minD = math.Min(minD, pm.At(i, j))
		}
		p.tail[i] = p.tail[i+1] + minD/2
	}
	p.tail[1], p.tail[0] = p.tail[2], p.tail[2]
	p.followHalf = make([]float64, n*n)
	for k := 0; k <= n; k++ {
		for t := k; t < n; t++ {
			f := math.Inf(1)
			for u := k; u < t; u++ {
				f = math.Min(f, pm.At(t, u)/2)
			}
			if k < n {
				p.followHalf[k*n+t] = f
			}
		}
	}
	rep := pm.TwinClasses()
	p.twinRep = make([]int32, n)
	p.twinSib = make([]int32, n)
	for s := 0; s < n; s++ {
		p.twinRep[s] = int32(rep[s])
		p.twinSib[s] = -1
		rowMin := math.Inf(1)
		for j := 0; j < n; j++ {
			if j != s {
				rowMin = math.Min(rowMin, pm.At(s, j))
			}
		}
		for j := 0; j < s; j++ {
			if rep[j] == rep[s] && pm.At(s, j) == rowMin {
				p.twinSib[s] = int32(j)
				break
			}
		}
	}
	return p
}

// TestNewProblemMatchesRelabel pins NewProblem, which reads m through the
// permutation and names twin classes by their smallest permuted index,
// to the tables of the relabeled copy: d, perm, tail, followHalf, twinRep
// and twinSib, on random, heavily tied and planted-twin matrices, with
// and without the max–min relabeling.
func TestNewProblemMatchesRelabel(t *testing.T) {
	families := []struct {
		name string
		gen  func(rng *rand.Rand, n int) *matrix.Matrix
	}{
		{"uniform", matrix.Random0100},
		{"metric1-4", func(rng *rand.Rand, n int) *matrix.Matrix { return matrix.RandomMetric(rng, n, 1, 4) }},
		{"perturbed", func(rng *rand.Rand, n int) *matrix.Matrix {
			return matrix.PerturbedUltrametric(rng, n, 100, 0.1)
		}},
		{"twins", func(rng *rand.Rand, n int) *matrix.Matrix {
			dups := 1 + rng.Intn(n/2)
			m := twinMatrix(rng, n-dups, dups)
			return m.Relabel(rng.Perm(n)) // scatter the twins over the input order
		}},
	}
	for _, f := range families {
		rng := rand.New(rand.NewSource(int64(len(f.name))))
		for trial := 0; trial < 40; trial++ {
			n := 4 + rng.Intn(21) // 4..24
			m := f.gen(rng, n)
			for _, useMaxMin := range []bool{true, false} {
				got, err := NewProblem(m, useMaxMin)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceTables(m, useMaxMin)
				for _, c := range []struct {
					field     string
					got, want any
				}{
					{"d", got.d, want.d},
					{"perm", got.perm, want.perm},
					{"tail", got.tail, want.tail},
					{"followHalf", got.followHalf, want.followHalf},
					{"twinRep", got.twinRep, want.twinRep},
					{"twinSib", got.twinSib, want.twinSib},
					{"names", got.names, want.names},
				} {
					if !reflect.DeepEqual(c.got, c.want) {
						t.Fatalf("%s n=%d trial %d maxmin=%v: %s = %v, relabeled reference %v",
							f.name, n, trial, useMaxMin, c.field, c.got, c.want)
					}
				}
			}
		}
	}
}
