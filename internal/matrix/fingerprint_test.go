package matrix

import (
	"fmt"
	"math/rand"
	"testing"
)

// fingerprint is the cache key alone, without the canonical permutation.
func fingerprint(m *Matrix) string {
	fp, _ := m.CanonicalFingerprint()
	return fp
}

// randPerm returns a random permutation of 0..n-1.
func randPerm(rng *rand.Rand, n int) []int {
	return rng.Perm(n)
}

// relabelWithNames permutes the matrix AND replaces the species names, so
// the test covers both leaf permutation and renaming at once.
func relabelWithNames(t *testing.T, m *Matrix, perm []int, tag string) *Matrix {
	t.Helper()
	p := m.Relabel(perm)
	names := make([]string, p.Len())
	for i := range names {
		names[i] = fmt.Sprintf("%s%d", tag, i)
	}
	r, err := NewWithNames(names)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.Len(); i++ {
		for j := i + 1; j < p.Len(); j++ {
			r.Set(i, j, p.At(i, j))
		}
	}
	return r
}

// TestFingerprintPermutationInvariant is the cache-key soundness property:
// any leaf permutation (row/column reorder) plus a full renaming of a
// matrix yields the same fingerprint, across every generator kind.
func TestFingerprintPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gens := []struct {
		kind string
		gen  func(n int) *Matrix
	}{
		{"random", func(n int) *Matrix { return Random0100(rng, n) }},
		{"metric", func(n int) *Matrix { return RandomMetric(rng, n, 1, 100) }},
		{"ultrametric", func(n int) *Matrix { return RandomUltrametric(rng, n, 50) }},
		{"perturbed", func(n int) *Matrix { return PerturbedUltrametric(rng, n, 50, 0.1) }},
	}
	for _, g := range gens {
		kind, gen := g.kind, g.gen
		for n := 2; n <= 16; n += 2 {
			m := gen(n)
			want := fingerprint(m)
			for trial := 0; trial < 8; trial++ {
				p := relabelWithNames(t, m, randPerm(rng, n), "x")
				if got := fingerprint(p); got != want {
					t.Fatalf("%s n=%d trial %d: fingerprint changed under permutation:\n%s\nvs\n%s",
						kind, n, trial, want, got)
				}
			}
		}
	}
}

// TestFingerprintDistinguishes: distinct matrices (a golden corpus of
// generated instances plus single-entry edits) never collide.
func TestFingerprintDistinguishes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seen := map[string]string{} // fingerprint -> description
	add := func(desc string, m *Matrix) {
		fp := fingerprint(m)
		if prev, dup := seen[fp]; dup {
			t.Fatalf("fingerprint collision: %s vs %s", prev, desc)
		}
		seen[fp] = desc
	}
	for n := 3; n <= 12; n++ {
		for i := 0; i < 10; i++ {
			add(fmt.Sprintf("random n=%d #%d", n, i), Random0100(rng, n))
			add(fmt.Sprintf("ultrametric n=%d #%d", n, i), RandomUltrametric(rng, n, 40))
		}
	}
	// A single edited entry must change the fingerprint.
	m := Random0100(rng, 8)
	add("edit base", m)
	e := m.Clone()
	e.Set(2, 5, e.At(2, 5)+1)
	add("edit bumped", e)
	// Same multiset of distances, different structure: a path-like vs a
	// star-like placement of one small distance.
	a := New(4)
	a.Set(0, 1, 1)
	a.Set(0, 2, 5)
	a.Set(0, 3, 5)
	a.Set(1, 2, 5)
	a.Set(1, 3, 5)
	a.Set(2, 3, 2)
	b := New(4)
	b.Set(0, 1, 1)
	b.Set(0, 2, 2)
	b.Set(0, 3, 5)
	b.Set(1, 2, 5)
	b.Set(1, 3, 5)
	b.Set(2, 3, 5)
	add("pairs {01,23}", a)
	add("chain {01,02}", b)
}

// TestFingerprintIgnoresNames: renaming alone (no reorder) keeps the
// fingerprint; the canonical form depends only on distances.
func TestFingerprintIgnoresNames(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := Random0100(rng, 9)
	id := make([]int, 9)
	for i := range id {
		id[i] = i
	}
	r := relabelWithNames(t, m, id, "renamed")
	if fingerprint(m) != fingerprint(r) {
		t.Fatal("renaming species changed the fingerprint")
	}
}

// TestCanonicalPermutationIsPermutation sanity-checks the output shape on
// edge sizes.
func TestCanonicalPermutationIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 3, 7, 13} {
		m := New(n)
		if n >= 2 {
			m = Random0100(rng, n)
		}
		perm := m.CanonicalPermutation()
		if len(perm) != n {
			t.Fatalf("n=%d: perm length %d", n, len(perm))
		}
		seen := make([]bool, n)
		for _, p := range perm {
			if p < 0 || p >= n || seen[p] {
				t.Fatalf("n=%d: not a permutation: %v", n, perm)
			}
			seen[p] = true
		}
	}
}

// TestCanonicalFingerprintPermAgrees: the perm returned alongside the
// fingerprint reproduces the canonical matrix whose hash is the
// fingerprint (Relabel round trip).
func TestCanonicalFingerprintPermAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := Random0100(rng, 10)
	fp, perm := m.CanonicalFingerprint()
	c := m.Relabel(perm)
	// The canonical matrix canonicalizes to itself (identity class order),
	// so its fingerprint equals the original's.
	if got := fingerprint(c); got != fp {
		t.Fatalf("canonical matrix fingerprint %s != %s", got, fp)
	}
}

// TestFingerprintSymmetricAdversaries pins the canonicalization on inputs
// where refinement alone cannot separate species: fully equidistant sets
// (every species a twin), perfectly balanced ultrametrics (maximal
// subtree symmetry, the worst case for the individualization search), and
// the minimal matrix whose only automorphism is a coordinated double swap
// — the case a local per-class tie-break gets wrong.
func TestFingerprintSymmetricAdversaries(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	check := func(desc string, m *Matrix, trials int) {
		t.Helper()
		want := fingerprint(m)
		for trial := 0; trial < trials; trial++ {
			if got := fingerprint(m.Relabel(randPerm(rng, m.Len()))); got != want {
				t.Fatalf("%s: invariance broken on trial %d", desc, trial)
			}
		}
	}
	for _, n := range []int{4, 8, 16, 32} {
		m := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Set(i, j, 7)
			}
		}
		check(fmt.Sprintf("all-equal n=%d", n), m, 4)
	}
	for _, depth := range []int{2, 3, 4, 5} {
		n := 1 << depth
		m := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				lvl := 0
				for x := i ^ j; x > 0; x >>= 1 {
					lvl++
				}
				m.Set(i, j, float64(int(2)<<lvl))
			}
		}
		check(fmt.Sprintf("perfect ultrametric n=%d", n), m, 4)
	}
	check("coordinated double swap", coordinatedDoubleSwap(), 24)
}

// BenchmarkFingerprint times one fingerprint on generic data, where the
// first partition is discrete (Random0100, and PerturbedUltrametric at
// the sizes evoweb's benchmark sends), and on heavy-tie data that needs
// refinement rounds (RandomMetric(1,3)).
func BenchmarkFingerprint(b *testing.B) {
	for _, bc := range []struct {
		name string
		gen  func(rng *rand.Rand) *Matrix
	}{
		{"Random0100/n=32", func(rng *rand.Rand) *Matrix { return Random0100(rng, 32) }},
		{"PerturbedUltrametric/n=20", func(rng *rand.Rand) *Matrix { return PerturbedUltrametric(rng, 20, 100, 0.8) }},
		{"PerturbedUltrametric/n=32", func(rng *rand.Rand) *Matrix { return PerturbedUltrametric(rng, 32, 100, 0.8) }},
		{"RandomMetric(1,3)/n=32", func(rng *rand.Rand) *Matrix { return RandomMetric(rng, 32, 1, 3) }},
	} {
		m := bc.gen(rand.New(rand.NewSource(3)))
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.CanonicalFingerprint()
			}
		})
	}
}

// TestTwinClasses pins the exported twin-class semantics the search's
// dominance rules build on: rep[i] is the smallest exact twin of i (same
// distances to every third species), the relation is reflexive-transitive
// on planted twins, and near-twins (one perturbed entry) do NOT collapse.
func TestTwinClasses(t *testing.T) {
	// Planted twins: 0≡3 and 1≡4; 2 is alone.
	m := New(5)
	d := [5][5]float64{
		{0, 8, 6, 2, 8},
		{8, 0, 7, 8, 3},
		{6, 7, 0, 6, 7},
		{2, 8, 6, 0, 8},
		{8, 3, 7, 8, 0},
	}
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			m.Set(i, j, d[i][j])
		}
	}
	want := []int{0, 1, 2, 0, 1}
	got := m.TwinClasses()
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("TwinClasses = %v, want %v", got, want)
		}
	}

	// Breaking one off-pair entry must split the twin pair.
	m.Set(3, 1, 9)
	got = m.TwinClasses()
	if got[3] == 0 {
		t.Fatalf("perturbed near-twins still collapsed: %v", got)
	}

	// All-equal: a single class with representative 0.
	eq := New(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			eq.Set(i, j, 5)
		}
	}
	for i, r := range eq.TwinClasses() {
		if r != 0 {
			t.Fatalf("all-equal species %d got rep %d, want 0", i, r)
		}
	}

	// Empty matrix: nil, no panic.
	if c := New(0).TwinClasses(); c != nil {
		t.Fatalf("TwinClasses on empty matrix = %v, want nil", c)
	}
}

// TestTwinClassesMatchRefinement pins TwinClasses, which collapses twins
// over a single class, to the twin collapse over the WL refinement
// classes, on random, heavy-tie, exactly ultrametric and planted-twin
// matrices.
func TestTwinClassesMatchRefinement(t *testing.T) {
	gens := map[string]func(rng *rand.Rand, n int) *Matrix{
		"random":    Random0100,
		"heavy-tie": func(rng *rand.Rand, n int) *Matrix { return RandomMetric(rng, n, 1, 3) },
		"ultrametric": func(rng *rand.Rand, n int) *Matrix {
			return RandomUltrametric(rng, n, 100)
		},
		"planted-twins": func(rng *rand.Rand, n int) *Matrix {
			m := RandomMetric(rng, n, 4, 8)
			// Copy row 0 onto a few later species: exact twins of 0 (and
			// of each other) at distance 1.
			for c := n - 3; c < n; c++ {
				for j := 1; j < n-3; j++ {
					m.Set(c, j, m.At(0, j))
				}
				for l := 0; l < c; l++ {
					if l == 0 || l >= n-3 {
						m.Set(c, l, 1)
					}
				}
			}
			return m
		},
	}
	for kind, gen := range gens {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 40; trial++ {
			n := 4 + rng.Intn(30)
			m := gen(rng, n)
			got, want := m.TwinClasses(), m.twinReps(m.wlClasses())
			if kind == "planted-twins" && want[n-1] != 0 {
				t.Fatalf("n=%d trial %d: planted twin %d not collapsed onto 0: %v", n, trial, n-1, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s n=%d trial %d: TwinClasses = %v, refined twin collapse = %v", kind, n, trial, got, want)
				}
			}
		}
	}
}
