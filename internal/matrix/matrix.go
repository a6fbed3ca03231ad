// Package matrix provides symmetric distance matrices over a set of species,
// together with the validation predicates (metric, ultrametric), the max–min
// permutation used by the branch-and-bound lower bound, and generators for
// the random workloads evaluated in the paper.
//
// A Matrix stores the full n×n table of float64 distances with a zero
// diagonal. All algorithms in this repository treat the matrix as immutable
// once built; the mutating helpers (Set, Relabel) are intended for
// construction time only.
package matrix

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Matrix is a symmetric distance matrix with named species.
// The zero value is not usable; construct with New or NewWithNames.
type Matrix struct {
	names []string
	d     [][]float64
}

// New returns an n×n zero matrix with synthetic names "S1".."Sn".
func New(n int) *Matrix {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("S%d", i+1)
	}
	m, _ := NewWithNames(names)
	return m
}

// NewWithNames returns a zero matrix whose dimension is len(names).
// Names must be non-empty and unique.
func NewWithNames(names []string) (*Matrix, error) {
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if name == "" {
			return nil, fmt.Errorf("matrix: empty species name")
		}
		if seen[name] {
			return nil, fmt.Errorf("matrix: duplicate species name %q", name)
		}
		seen[name] = true
	}
	n := len(names)
	d := make([][]float64, n)
	cells := make([]float64, n*n)
	for i := range d {
		d[i], cells = cells[:n], cells[n:]
	}
	return &Matrix{names: append([]string(nil), names...), d: d}, nil
}

// Len returns the number of species.
func (m *Matrix) Len() int { return len(m.names) }

// Name returns the name of species i.
func (m *Matrix) Name(i int) string { return m.names[i] }

// Names returns a copy of the species names in index order.
func (m *Matrix) Names() []string { return append([]string(nil), m.names...) }

// At returns the distance between species i and j.
func (m *Matrix) At(i, j int) float64 { return m.d[i][j] }

// Row returns the distances from species i to every species, indexed by
// species: Row(i)[j] == At(i, j). It is the matrix's own backing row, not
// a copy, so a scan over it costs no call per entry. Callers must only
// read it; writing through it breaks the symmetry every algorithm relies
// on.
func (m *Matrix) Row(i int) []float64 { return m.d[i] }

// Set assigns the distance between i and j symmetrically.
// Setting a diagonal entry to a non-zero value is a programming error and
// panics.
func (m *Matrix) Set(i, j int, v float64) {
	if i == j && v != 0 {
		panic("matrix: non-zero diagonal")
	}
	m.d[i][j] = v
	m.d[j][i] = v
}

// Check verifies structural validity: square shape is implied by
// construction; it checks the zero diagonal, finite distances, symmetry,
// and non-negativity.
func (m *Matrix) Check() error {
	n := m.Len()
	for i := 0; i < n; i++ {
		if m.d[i][i] != 0 {
			return fmt.Errorf("matrix: diagonal entry (%d,%d) = %g, want 0", i, i, m.d[i][i])
		}
		for j := i + 1; j < n; j++ {
			if v := m.d[i][j]; math.IsInf(v, 0) || math.IsNaN(v) {
				return fmt.Errorf("matrix: non-finite distance at (%d,%d): %g", i, j, v)
			}
			if m.d[i][j] != m.d[j][i] {
				return fmt.Errorf("matrix: asymmetric at (%d,%d): %g vs %g", i, j, m.d[i][j], m.d[j][i])
			}
			if m.d[i][j] < 0 {
				return fmt.Errorf("matrix: negative distance at (%d,%d): %g", i, j, m.d[i][j])
			}
		}
	}
	return nil
}

// IsMetric reports whether the matrix satisfies the triangle inequality
// M[i,j] + M[j,k] >= M[i,k] for all triples (Definition 2 of the paper),
// with a relative tolerance of 1e-12 of the largest distance to absorb the
// rounding of float-valued generators (integer matrices are checked
// exactly, since their sums are exact in float64).
func (m *Matrix) IsMetric() bool {
	n := m.Len()
	tol := 1e-12 * m.MaxOff()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			for k := 0; k < n; k++ {
				if m.d[i][j]+m.d[j][k] < m.d[i][k]-tol {
					return false
				}
			}
		}
	}
	return true
}

// IsUltrametric reports whether M[i,j] <= max(M[i,k], M[j,k]) holds for all
// triples (Definition 3 of the paper, the three-point condition).
func (m *Matrix) IsUltrametric() bool {
	n := m.Len()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for k := 0; k < n; k++ {
				if k == i || k == j {
					continue
				}
				if m.d[i][j] > math.Max(m.d[i][k], m.d[j][k]) {
					return false
				}
			}
		}
	}
	return true
}

// MaxPair returns a pair of species (i, j) with i < j whose distance is
// maximum, along with that distance. It panics if the matrix has fewer than
// two species.
func (m *Matrix) MaxPair() (i, j int, dist float64) {
	n := m.Len()
	if n < 2 {
		panic("matrix: MaxPair requires at least two species")
	}
	i, j, dist = 0, 1, m.d[0][1]
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if m.d[a][b] > dist {
				i, j, dist = a, b, m.d[a][b]
			}
		}
	}
	return i, j, dist
}

// MinOff returns the smallest off-diagonal distance.
func (m *Matrix) MinOff() float64 {
	n := m.Len()
	if n < 2 {
		return 0
	}
	minD := m.d[0][1]
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if m.d[a][b] < minD {
				minD = m.d[a][b]
			}
		}
	}
	return minD
}

// MaxOff returns the largest off-diagonal distance (0 for n < 2).
func (m *Matrix) MaxOff() float64 {
	if m.Len() < 2 {
		return 0
	}
	_, _, d := m.MaxPair()
	return d
}

// Submatrix returns the matrix restricted to the given species indices, in
// the given order. Indices must be valid and distinct.
func (m *Matrix) Submatrix(idx []int) *Matrix {
	names := make([]string, len(idx))
	for k, i := range idx {
		names[k] = m.names[i]
	}
	s, err := NewWithNames(names)
	if err != nil {
		panic(fmt.Sprintf("matrix: invalid submatrix index set: %v", err))
	}
	for a, i := range idx {
		for b, j := range idx {
			s.d[a][b] = m.d[i][j]
		}
	}
	return s
}

// Relabel returns a copy of m with species reordered so that new index k
// holds old species perm[k]. perm must be a permutation of 0..n-1.
func (m *Matrix) Relabel(perm []int) *Matrix {
	if len(perm) != m.Len() {
		panic("matrix: permutation length mismatch")
	}
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if p < 0 || p >= len(perm) || seen[p] {
			panic("matrix: not a permutation")
		}
		seen[p] = true
	}
	return m.Submatrix(perm)
}

// MaxMinPermutation returns a permutation perm (new→old index) realizing the
// max–min ordering of Wu, Chao and Tang: perm[0], perm[1] are a farthest
// pair, and each subsequent species maximizes its minimum distance to the
// species already chosen. Ties are broken toward the smaller original index
// so the result is deterministic.
func (m *Matrix) MaxMinPermutation() []int {
	n := m.Len()
	perm := make([]int, 0, n)
	if n == 0 {
		return perm
	}
	if n == 1 {
		return append(perm, 0)
	}
	i, j, _ := m.MaxPair()
	perm = append(perm, i, j)
	chosen := make([]bool, n)
	chosen[i], chosen[j] = true, true
	// minTo[v] is the minimum distance from v to the chosen set.
	minTo := make([]float64, n)
	for v := 0; v < n; v++ {
		minTo[v] = math.Min(m.d[v][i], m.d[v][j])
	}
	for len(perm) < n {
		best, bestVal := -1, math.Inf(-1)
		for v := 0; v < n; v++ {
			if chosen[v] {
				continue
			}
			if minTo[v] > bestVal {
				best, bestVal = v, minTo[v]
			}
		}
		perm = append(perm, best)
		chosen[best] = true
		for v := 0; v < n; v++ {
			if !chosen[v] && m.d[v][best] < minTo[v] {
				minTo[v] = m.d[v][best]
			}
		}
	}
	return perm
}

// String renders the matrix in the same PHYLIP-like format accepted by Parse.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d\n", m.Len())
	for i := 0; i < m.Len(); i++ {
		b.WriteString(m.names[i])
		for j := 0; j < m.Len(); j++ {
			fmt.Fprintf(&b, " %g", m.d[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SortedDistances returns all off-diagonal distances (each unordered pair
// once) in ascending order.
func (m *Matrix) SortedDistances() []float64 {
	n := m.Len()
	out := make([]float64, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out = append(out, m.d[i][j])
		}
	}
	sort.Float64s(out)
	return out
}
