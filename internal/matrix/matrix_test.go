package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(3)
	if m.Len() != 3 {
		t.Fatalf("Len = %d", m.Len())
	}
	if got := m.Name(0); got != "S1" {
		t.Fatalf("Name(0) = %q", got)
	}
	m.Set(0, 2, 7)
	if m.At(0, 2) != 7 || m.At(2, 0) != 7 {
		t.Fatal("Set must be symmetric")
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestRow pins Row's contract: Row(i)[j] is At(i, j), and the row is the
// matrix's storage, so a later Set shows through it.
func TestRow(t *testing.T) {
	m := RandomMetric(rand.New(rand.NewSource(3)), 7, 1, 100)
	for i := 0; i < m.Len(); i++ {
		row := m.Row(i)
		if len(row) != m.Len() {
			t.Fatalf("row %d has %d entries", i, len(row))
		}
		for j, d := range row {
			if d != m.At(i, j) {
				t.Fatalf("Row(%d)[%d] = %g, At = %g", i, j, d, m.At(i, j))
			}
		}
	}
	row := m.Row(2)
	m.Set(2, 5, 42)
	if row[5] != 42 {
		t.Fatal("Row must alias the matrix storage")
	}
}

func TestNewWithNamesRejectsBadNames(t *testing.T) {
	if _, err := NewWithNames([]string{"a", ""}); err == nil {
		t.Fatal("want error for empty name")
	}
	if _, err := NewWithNames([]string{"a", "a"}); err == nil {
		t.Fatal("want error for duplicate name")
	}
}

func TestSetPanicsOnDiagonal(t *testing.T) {
	m := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for non-zero diagonal")
		}
	}()
	m.Set(1, 1, 3)
}

// fromRows builds a matrix from a full square table, which must be
// symmetric with a zero diagonal.
func fromRows(rows [][]float64) *Matrix {
	m := New(len(rows))
	for i, row := range rows {
		for j, v := range row {
			if i != j {
				m.Set(i, j, v)
			}
		}
	}
	return m
}

func TestIsMetricAndUltrametric(t *testing.T) {
	m := fromRows([][]float64{
		{0, 2, 2},
		{2, 0, 1},
		{2, 1, 0},
	})
	if !m.IsMetric() {
		t.Fatal("metric matrix misclassified")
	}
	if !m.IsUltrametric() {
		t.Fatal("ultrametric matrix misclassified")
	}
	bad := fromRows([][]float64{
		{0, 10, 1},
		{10, 0, 1},
		{1, 1, 0},
	})
	if bad.IsMetric() {
		t.Fatal("triangle violation missed")
	}
	nonUltra := fromRows([][]float64{
		{0, 3, 2},
		{3, 0, 1},
		{2, 1, 0},
	})
	if !nonUltra.IsMetric() || nonUltra.IsUltrametric() {
		t.Fatal("metric-but-not-ultrametric misclassified")
	}
}

func TestMaxPairMinOff(t *testing.T) {
	m := New(4)
	m.Set(0, 1, 5)
	m.Set(0, 2, 9)
	m.Set(0, 3, 2)
	m.Set(1, 2, 4)
	m.Set(1, 3, 3)
	m.Set(2, 3, 8)
	i, j, d := m.MaxPair()
	if i != 0 || j != 2 || d != 9 {
		t.Fatalf("MaxPair = (%d,%d,%g)", i, j, d)
	}
	if m.MinOff() != 2 {
		t.Fatalf("MinOff = %g", m.MinOff())
	}
	if m.MaxOff() != 9 {
		t.Fatalf("MaxOff = %g", m.MaxOff())
	}
}

func TestSubmatrixAndRelabel(t *testing.T) {
	m := New(4)
	m.Set(0, 1, 1)
	m.Set(0, 2, 2)
	m.Set(0, 3, 3)
	m.Set(1, 2, 4)
	m.Set(1, 3, 5)
	m.Set(2, 3, 6)
	s := m.Submatrix([]int{2, 0, 3})
	if s.Len() != 3 || s.Name(0) != "S3" || s.At(0, 1) != 2 || s.At(0, 2) != 6 {
		t.Fatalf("Submatrix wrong: %s", s)
	}
	r := m.Relabel([]int{3, 2, 1, 0})
	if r.At(0, 1) != m.At(3, 2) || r.Name(0) != "S4" {
		t.Fatal("Relabel wrong")
	}
}

func TestRelabelRejectsNonPermutation(t *testing.T) {
	m := New(3)
	for _, perm := range [][]int{{0, 1}, {0, 0, 1}, {0, 1, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("want panic for %v", perm)
				}
			}()
			m.Relabel(perm)
		}()
	}
}

func TestMaxMinPermutationProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		m := RandomMetric(rng, n, 50, 100)
		perm := m.MaxMinPermutation()
		// Bijection over 0..n-1.
		seen := make([]bool, n)
		for _, p := range perm {
			if p < 0 || p >= n || seen[p] {
				return false
			}
			seen[p] = true
		}
		return isMaxMinPermutation(m, perm)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxMinPermutationTiny(t *testing.T) {
	if got := New(0).MaxMinPermutation(); len(got) != 0 {
		t.Fatal("n=0")
	}
	if got := New(1).MaxMinPermutation(); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("n=1: %v", got)
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Len())
	copy(c.names, m.names)
	for i := range m.d {
		copy(c.d[i], m.d[i])
	}
	return c
}

func TestCloneIsDeep(t *testing.T) {
	m := New(2)
	m.Set(0, 1, 4)
	c := m.Clone()
	c.Set(0, 1, 9)
	if m.At(0, 1) != 4 {
		t.Fatal("Clone shares storage")
	}
}

func TestSortedDistances(t *testing.T) {
	m := New(3)
	m.Set(0, 1, 3)
	m.Set(0, 2, 1)
	m.Set(1, 2, 2)
	if got := m.SortedDistances(); !reflect.DeepEqual(got, []float64{1, 2, 3}) {
		t.Fatalf("SortedDistances = %v", got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		m := RandomMetric(rng, n, 50, 100)
		got, err := ParseString(m.String())
		if err != nil {
			return false
		}
		return got.String() == m.String()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestParseComments(t *testing.T) {
	src := `# a comment

2
a 0 1.5

# another
b 1.5 0
`
	m, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 || m.At(0, 1) != 1.5 || m.Name(1) != "b" {
		t.Fatalf("parsed %s", m)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                      // no header
		"x",                     // bad count
		"-1",                    // negative count
		"2\na 0 1",              // missing row
		"1\na 0 1",              // too many fields
		"2\na 0 1\nb 2 0",       // asymmetric
		"2\na 0 one\nb one 0",   // bad number
		"2\na 0 -1\nb -1 0",     // negative
		"2\na 1 0\nb 0 1",       // non-zero diagonal (a:1)
		"2\ndup 0 1\ndup 1 0",   // duplicate names
		"3\na 0 1 1\nb 1 0 1\n", // truncated
	}
	for _, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("want error for %q", src)
		}
	}
}

func TestGeneratorsAreMetric(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		gens := []*Matrix{
			RandomMetric(rng, n, 50, 100),
			RandomMetric(rng, n, 1, 100), // triggers the closure path
			Random0100(rng, n),
			PerturbedUltrametric(rng, n, 100, 0.3),
		}
		for _, m := range gens {
			if m.Check() != nil || !m.IsMetric() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomUltrametricIsUltrametric(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		m := RandomUltrametric(rng, n, 100)
		return m.Check() == nil && m.IsUltrametric() && m.IsMetric()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomMetricRange(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := RandomMetric(rng, 12, 50, 100)
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			if d := m.At(i, j); d < 50 || d > 100 {
				t.Fatalf("distance %g outside [50,100]", d)
			}
		}
	}
}

func TestStringFormat(t *testing.T) {
	m := New(2)
	m.Set(0, 1, 2.5)
	want := "2\nS1 0 2.5\nS2 2.5 0\n"
	if got := m.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	var sb strings.Builder
	if err := m.Write(&sb); err != nil || sb.String() != want {
		t.Fatalf("Write = %q, %v", sb.String(), err)
	}
}

func TestIsMaxMinPermutationRejects(t *testing.T) {
	m := New(3)
	m.Set(0, 1, 10)
	m.Set(0, 2, 1)
	m.Set(1, 2, 9.5)
	// {2,...} cannot start a max-min permutation: the farthest pair is (0,1).
	if isMaxMinPermutation(m, []int{2, 0, 1}) {
		t.Fatal("accepted a permutation not starting with the farthest pair")
	}
	if isMaxMinPermutation(m, []int{0, 1}) {
		t.Fatal("accepted wrong length")
	}
	if !isMaxMinPermutation(m, m.MaxMinPermutation()) {
		t.Fatal("rejected its own permutation")
	}
	if math.IsNaN(m.At(0, 1)) {
		t.Fatal("unexpected NaN")
	}
}

func TestParseLowerTriangular(t *testing.T) {
	// PHYLIP lower triangle without the diagonal.
	lower := `4
a
b 2
c 8 8
d 8 8 4
`
	m, err := ParseString(lower)
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 2 || m.At(2, 3) != 4 || m.At(1, 3) != 8 {
		t.Fatalf("lower parse wrong: %s", m)
	}
	// With the diagonal.
	lowerDiag := `4
a 0
b 2 0
c 8 8 0
d 8 8 4 0
`
	m2, err := ParseString(lowerDiag)
	if err != nil {
		t.Fatal(err)
	}
	if m2.String() != m.String() {
		t.Fatalf("diag/no-diag disagree:\n%s\n%s", m2, m)
	}
	// Full square still parses.
	m3, err := ParseString(m.String())
	if err != nil || m3.String() != m.String() {
		t.Fatalf("full square round trip: %v", err)
	}
	// Non-zero diagonal in lower+diag is rejected.
	if _, err := ParseString("2\na 0\nb 2 1\n"); err == nil {
		t.Fatal("want error for non-zero diagonal")
	}
	// Inconsistent shape is rejected.
	if _, err := ParseString("3\na\nb 1\nc 1\n"); err == nil {
		t.Fatal("want error for short row")
	}
	// n=1 in every shape.
	for _, src := range []string{"1\nsolo\n", "1\nsolo 0\n"} {
		m, err := ParseString(src)
		if err != nil || m.Len() != 1 {
			t.Fatalf("n=1 %q: %v", src, err)
		}
	}
	// n=2 lower triangle with diagonal (the ambiguous case).
	m4, err := ParseString("2\na 0\nb 5 0\n")
	if err != nil || m4.At(0, 1) != 5 {
		t.Fatalf("n=2 lower+diag: %v", err)
	}
}

// TestParseRejectsNonFinite: an infinite or NaN distance fails Check with
// an error naming the cell, in every spelling strconv accepts.
func TestParseRejectsNonFinite(t *testing.T) {
	for _, v := range []string{"Inf", "-Inf", "+Inf", "infinity", "NaN"} {
		src := fmt.Sprintf("4\na 0 2 8 %[1]s\nb 2 0 8 8\nc 8 8 0 4\nd %[1]s 8 4 0\n", v)
		_, err := ParseString(src)
		if err == nil || !strings.HasPrefix(err.Error(), "matrix: non-finite distance at (0,3): ") {
			t.Errorf("%s: err = %v, want the non-finite error at (0,3)", v, err)
		}
	}
}

// isMaxMinPermutation reports whether perm satisfies the max–min property
// for m, the reference MaxMinPermutation is checked against: the first
// two species are a farthest pair, and each later species has a minimum
// distance to its predecessors no smaller than any unchosen alternative
// at that step.
func isMaxMinPermutation(m *Matrix, perm []int) bool {
	n := m.Len()
	if len(perm) != n {
		return false
	}
	if n < 2 {
		return n != 1 || perm[0] == 0
	}
	_, _, maxD := m.MaxPair()
	if m.d[perm[0]][perm[1]] != maxD {
		return false
	}
	for k := 2; k < n; k++ {
		picked := minDistTo(m, perm[k], perm[:k])
		for l := k + 1; l < n; l++ {
			if minDistTo(m, perm[l], perm[:k]) > picked {
				return false
			}
		}
	}
	return true
}

func minDistTo(m *Matrix, v int, set []int) float64 {
	best := math.Inf(1)
	for _, s := range set {
		if m.d[v][s] < best {
			best = m.d[v][s]
		}
	}
	return best
}
