package matrix

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The canonicalization as it was before flat-slice signatures, kept under
// ref names: string signatures ranked through sort.Strings and a map, a
// confirmation round on every partition, and the search even when the
// partition is discrete. evoweb's cache keys are fingerprints, so the
// live code must reproduce its classes, permutation and fingerprint
// exactly.

func (m *Matrix) refCanonicalPermutation() []int {
	n := m.Len()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	if n < 2 {
		return perm
	}
	class := m.refWlClasses()
	if best, ok := m.refCanonSearch(class); ok {
		return best
	}
	// Budget exhausted: deterministic fallback, ordered by class then
	// original index.
	sort.SliceStable(perm, func(a, b int) bool { return class[perm[a]] < class[perm[b]] })
	return perm
}

// refWlClasses computes the stable refinement partition: class[i] is species
// i's class, densely numbered in canonical (signature-sorted) order.
func (m *Matrix) refWlClasses() []int {
	n := m.Len()
	class := make([]int, n)
	sigs := make([]string, n)

	// Initial partition: the sorted multiset of each row's distances.
	row := make([]uint64, n-1)
	for i := 0; i < n; i++ {
		k := 0
		for j := 0; j < n; j++ {
			if j != i {
				row[k] = math.Float64bits(m.d[i][j])
				k++
			}
		}
		sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
		sigs[i] = refU64String(row)
	}
	classes := refRerank(sigs, class)

	// Refine: re-key each species by its own class followed by the sorted
	// multiset of its (neighbor class, distance) pairs, until the class
	// count stabilizes. Including the own class makes each round a true
	// refinement (classes can only split, never merge), so an unchanged
	// class count means an unchanged partition and the loop runs at most
	// n-1 effective rounds.
	pair := make([]uint64, 2*(n-1)+1)
	for round := 0; round < n; round++ {
		for i := 0; i < n; i++ {
			pair[0] = uint64(class[i])
			k := 1
			for j := 0; j < n; j++ {
				if j != i {
					pair[k] = uint64(class[j])
					pair[k+1] = math.Float64bits(m.d[i][j])
					k += 2
				}
			}
			refSortPairs(pair[1:])
			sigs[i] = refU64String(pair)
		}
		next := refRerank(sigs, class)
		if next == classes {
			break
		}
		classes = next
	}
	return class
}

func (m *Matrix) refCanonSearch(class []int) ([]int, bool) {
	n := m.Len()
	rep := m.twinReps(class)
	total := n * (n - 1) / 2

	var (
		cur      = make([]int, 0, n)
		curSeq   = make([]uint64, 0, total)
		used     = make([]bool, n)
		best     []int
		bestSeq  []uint64
		budget   = canonSearchBudget
		overflow bool
	)

	var dfs func(better bool)
	dfs = func(better bool) {
		if overflow {
			return
		}
		if budget--; budget < 0 {
			overflow = true
			return
		}
		k := len(cur)
		if k == n {
			if better || best == nil {
				best = append(best[:0], cur...)
				bestSeq = append(bestSeq[:0], curSeq...)
			}
			return
		}
		// Candidates: unused species of the minimal remaining class, one
		// per twin group, and among those only the ones whose appended
		// distance block d(o_0..o_{k-1}, v) is lexicographically minimal —
		// any larger block loses to the minimal one at this very position
		// in every completion.
		minClass := -1
		for v := 0; v < n; v++ {
			if !used[v] && (minClass < 0 || class[v] < minClass) {
				minClass = class[v]
			}
		}
		var cands []int
		minBlock := make([]uint64, 0, k)
		haveMin := false
		block := make([]uint64, k)
		for v := 0; v < n; v++ {
			if used[v] || class[v] != minClass {
				continue
			}
			// Twin collapse: skip v if an unused twin with a smaller index
			// exists — that twin covers this branch.
			skip := false
			for u := rep[v]; u < v; u++ {
				if rep[u] == rep[v] && !used[u] {
					skip = true
					break
				}
			}
			if skip {
				continue
			}
			for j := 0; j < k; j++ {
				block[j] = math.Float64bits(m.d[cur[j]][v])
			}
			c := -1
			if haveMin {
				c = refCmpU64(block, minBlock)
			}
			switch {
			case c < 0:
				haveMin = true
				minBlock = append(minBlock[:0], block...)
				cands = append(cands[:0], v)
			case c == 0:
				cands = append(cands, v)
			}
		}
		// All surviving candidates share the identical block, so one
		// bound check covers the whole node.
		childBetter := better
		if !better && best != nil {
			switch refCmpU64(minBlock, bestSeq[len(curSeq):len(curSeq)+k]) {
			case 1:
				return // every completion is worse than best
			case -1:
				childBetter = true
			}
		}
		curSeq = append(curSeq, minBlock...)
		for _, v := range cands {
			cur = append(cur, v)
			used[v] = true
			dfs(childBetter)
			used[v] = false
			cur = cur[:k]
		}
		curSeq = curSeq[:len(curSeq)-k]
	}
	dfs(false)
	if overflow || best == nil {
		return nil, false
	}
	return best, true
}

// refCmpU64 lexicographically compares equal-length uint64 slices.
func refCmpU64(a, b []uint64) int {
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// refRerank densely renumbers class in the sort order of sigs and returns
// the class count.
func refRerank(sigs []string, class []int) int {
	uniq := append([]string(nil), sigs...)
	sort.Strings(uniq)
	rank := make(map[string]int, len(uniq))
	for _, s := range uniq {
		if _, ok := rank[s]; !ok {
			rank[s] = len(rank)
		}
	}
	for i, s := range sigs {
		class[i] = rank[s]
	}
	return len(rank)
}

// refSortPairs sorts a flat [c0,d0,c1,d1,...] slice by (c,d) pairs.
func refSortPairs(p []uint64) {
	n := len(p) / 2
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if p[2*idx[a]] != p[2*idx[b]] {
			return p[2*idx[a]] < p[2*idx[b]]
		}
		return p[2*idx[a]+1] < p[2*idx[b]+1]
	})
	out := make([]uint64, len(p))
	for k, i := range idx {
		out[2*k], out[2*k+1] = p[2*i], p[2*i+1]
	}
	copy(p, out)
}

// refU64String packs a uint64 slice into a string usable as a map key.
func refU64String(v []uint64) string {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.BigEndian.PutUint64(b[8*i:], x)
	}
	return string(b)
}

func (m *Matrix) refCanonicalFingerprint() (string, []int) {
	perm := m.refCanonicalPermutation()
	n := m.Len()
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(n))
	h.Write(buf[:])
	// Full canonical matrix, upper triangle (symmetry makes the rest
	// redundant), row by row in canonical order.
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			binary.BigEndian.PutUint64(buf[:], math.Float64bits(m.d[perm[a]][perm[b]]))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)), perm
}

// canonFamilies are the inputs the live canonical form is pinned on, each
// at any n >= 2: generic data, where refinement alone is discrete;
// heavy-tie and few-level data, where it refines over several rounds or
// leaves ties to the search; and symmetric data, where the search meets
// twins and non-twin automorphisms.
var canonFamilies = []struct {
	name string
	gen  func(rng *rand.Rand, n int) *Matrix
}{
	{"Random0100", Random0100},
	{"RandomMetric(1,3)", func(rng *rand.Rand, n int) *Matrix { return RandomMetric(rng, n, 1, 3) }},
	{"RandomMetric(1,6)", func(rng *rand.Rand, n int) *Matrix { return RandomMetric(rng, n, 1, 6) }},
	{"few-level ultrametric", func(rng *rand.Rand, n int) *Matrix {
		// Rounding up to 4 levels is monotone, so it keeps the matrix
		// ultrametric and makes most heights tie.
		m := RandomUltrametric(rng, n, 100)
		top := m.MaxOff()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Set(i, j, math.Ceil(4*m.At(i, j)/top))
			}
		}
		return m
	}},
	{"PerturbedUltrametric(100,0.8)", func(rng *rand.Rand, n int) *Matrix { return PerturbedUltrametric(rng, n, 100, 0.8) }},
	{"all-equal", func(_ *rand.Rand, n int) *Matrix {
		m := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Set(i, j, 7)
			}
		}
		return m
	}},
	{"balanced ultrametric", func(_ *rand.Rand, n int) *Matrix {
		// Split 0..n-1 into halves, recursively, halving the height at
		// each level: a perfect binary tree when n is a power of two.
		m := New(n)
		var split func(lo, hi int, h float64)
		split = func(lo, hi int, h float64) {
			if hi-lo < 2 {
				return
			}
			mid := (lo + hi) / 2
			for a := lo; a < mid; a++ {
				for b := mid; b < hi; b++ {
					m.Set(a, b, h)
				}
			}
			split(lo, mid, h/2)
			split(mid, hi, h/2)
		}
		split(0, n, 1024)
		return m
	}},
	{"planted twins", func(rng *rand.Rand, n int) *Matrix {
		// Species first..n-1 copy row 0 and sit at distance 1 from it and
		// from each other: exact twins of 0.
		m := RandomMetric(rng, n, 4, 8)
		first := max(1, n-3)
		for c := first; c < n; c++ {
			for j := 1; j < first; j++ {
				m.Set(c, j, m.At(0, j))
			}
			for l := 0; l < c; l++ {
				if l == 0 || l >= first {
					m.Set(c, l, 1)
				}
			}
		}
		return m
	}},
}

// coordinatedDoubleSwap is the 4-species matrix with d(0,1)=6, d(2,3)=19
// and cross distances {7,13}. Its only non-trivial automorphism is
// (0 1)(2 3): swapping inside one refinement class forces a swap in the
// other.
func coordinatedDoubleSwap() *Matrix {
	m := New(4)
	m.Set(0, 1, 6)
	m.Set(0, 2, 7)
	m.Set(0, 3, 13)
	m.Set(1, 2, 13)
	m.Set(1, 3, 7)
	m.Set(2, 3, 19)
	return m
}

// hexagonAndTriangles is a 12-species matrix at distance 1 along the
// edges of a hexagon (species 0-5) and of two triangles (6-8, 9-11), and 2
// elsewhere. Every species has two neighbours at 1, so refinement leaves a
// single class, yet a triangle species is no relabeling of a hexagon one:
// the search must try more than one species at depth 0.
func hexagonAndTriangles() *Matrix {
	m := New(12)
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			m.Set(i, j, 2)
		}
	}
	for i := 0; i < 6; i++ {
		m.Set(i, (i+1)%6, 1)
	}
	for _, t := range [][3]int{{6, 7, 8}, {9, 10, 11}} {
		m.Set(t[0], t[1], 1)
		m.Set(t[1], t[2], 1)
		m.Set(t[0], t[2], 1)
	}
	return m
}

// canonicalFormDiff reports where m's live canonical form differs from
// the reference: the refinement classes, the permutation, or the
// fingerprint.
func canonicalFormDiff(m *Matrix) error {
	if got, want := m.wlClasses(), m.refWlClasses(); !slices.Equal(got, want) {
		return fmt.Errorf("wlClasses = %v, reference %v", got, want)
	}
	// CanonicalFingerprint returns CanonicalPermutation's permutation,
	// so one call checks both.
	wantFP, wantPerm := m.refCanonicalFingerprint()
	if fp, perm := m.CanonicalFingerprint(); !slices.Equal(perm, wantPerm) {
		return fmt.Errorf("CanonicalPermutation = %v, reference %v", perm, wantPerm)
	} else if fp != wantFP {
		return fmt.Errorf("CanonicalFingerprint = %s, reference %s", fp, wantFP)
	}
	return nil
}

// TestCanonicalFormMatchesReference pins the classes, permutation and
// fingerprint to the reference on every family at n = 2..40, and on the
// coordinated double swap and the hexagon with two triangles, each as
// drawn and under three random relabelings.
func TestCanonicalFormMatchesReference(t *testing.T) {
	check := func(desc string, rng *rand.Rand, m *Matrix) {
		t.Helper()
		if err := canonicalFormDiff(m); err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		for trial := 0; trial < 3; trial++ {
			if err := canonicalFormDiff(m.Relabel(rng.Perm(m.Len()))); err != nil {
				t.Fatalf("%s relabeling %d: %v", desc, trial, err)
			}
		}
	}
	for _, f := range canonFamilies {
		rng := rand.New(rand.NewSource(11))
		for n := 2; n <= 40; n++ {
			check(fmt.Sprintf("%s n=%d", f.name, n), rng, f.gen(rng, n))
		}
	}
	rng := rand.New(rand.NewSource(11))
	check("coordinated double swap", rng, coordinatedDoubleSwap())
	check("hexagon and two triangles", rng, hexagonAndTriangles())
}

// TestFingerprintAlloc guards the flat-slice canonical form: on a matrix
// whose first partition is already discrete, CanonicalFingerprint
// allocates a fixed handful of objects, the same number at every n.
func TestFingerprintAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var counts []float64
	for _, n := range []int{8, 20, 32} {
		m := PerturbedUltrametric(rng, n, 100, 0.8)
		if slices.Max(m.wlClasses()) != n-1 {
			t.Fatalf("n=%d: the test matrix's partition is not discrete", n)
		}
		got := testing.AllocsPerRun(20, func() { m.CanonicalFingerprint() })
		if got > 8 {
			t.Fatalf("CanonicalFingerprint allocated %v objects at n=%d, want at most 8", got, n)
		}
		counts = append(counts, got)
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Fatalf("CanonicalFingerprint allocations %v at n=8, 20, 32: want the same count at every n", counts)
	}
}
