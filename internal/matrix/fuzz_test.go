package matrix

import (
	"math/rand"
	"testing"
)

// parseSeeds are the seed inputs of the parser's fuzz targets.
func parseSeeds() []string {
	rng := rand.New(rand.NewSource(1))
	return []string{
		"2\na 0 1\nb 1 0\n",
		"3\na\nb 1\nc 1 2\n",
		"3\na 0\nb 1 0\nc 1 2 0\n",
		"# comment\n1\nsolo\n",
		"",
		"9999999999999999999999",
		"2\na 0 1e308\nb 1e308 0\n",
		RandomMetric(rng, 6, 50, 100).String(),
	}
}

// FuzzParse hammers the matrix reader: any input must either parse into a
// structurally valid matrix or fail cleanly — never panic.
func FuzzParse(f *testing.F) {
	for _, src := range parseSeeds() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ParseString(src)
		if err != nil {
			return
		}
		if err := m.Check(); err != nil {
			t.Fatalf("parsed matrix fails Check: %v\ninput: %q", err, src)
		}
		// Round trip must be stable.
		again, err := ParseString(m.String())
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if again.String() != m.String() {
			t.Fatalf("round trip not a fixed point")
		}
	})
}

// FuzzCanonicalForm decodes its bytes into a matrix of 2–10 species with
// distances 1–4, so ties and twins are common, and a permutation. The
// live canonical form must equal the reference on the matrix and on its
// relabeling, and the fingerprint must not change under the relabeling.
func FuzzCanonicalForm(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{8, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 7, 6, 5, 4, 3, 2, 1})
	f.Add([]byte{2, 1, 2, 3, 2, 3, 3, 1, 0, 2})
	f.Add([]byte("a matrix with mostly distinct rows, then a shuffle"))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 2 + next()%9
		m := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Set(i, j, float64(1+next()%4))
			}
		}
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := next() % (i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		p := m.Relabel(perm)
		for _, x := range []*Matrix{m, p} {
			if err := canonicalFormDiff(x); err != nil {
				t.Fatalf("%v\nmatrix:\n%s", err, x)
			}
		}
		if a, b := fingerprint(m), fingerprint(p); a != b {
			t.Fatalf("fingerprint changed under relabeling %v: %s vs %s\nmatrix:\n%s", perm, a, b, m)
		}
	})
}
