package tree

import (
	"math/rand"
	"testing"
)

// FuzzParseNewick: arbitrary input must never panic; successful parses
// must yield valid ultrametric trees whose re-rendering parses again.
func FuzzParseNewick(f *testing.F) {
	f.Add("(a:1,b:1);")
	f.Add("((a:1,b:1):2,(c:2,d:2):1);")
	f.Add("('quoted name':3,('it''s':1,x:1):2);")
	f.Add("")
	f.Add("(((((")
	f.Add("(a:1e-3,b:1e-3);")
	rng := rand.New(rand.NewSource(3))
	tr := randomUltraTree(rng, 9)
	f.Add(tr.Newick())
	f.Fuzz(func(t *testing.T, src string) {
		parsed, err := ParseNewick(src, 1e-9)
		if err != nil {
			return
		}
		if err := parsed.Validate(1e-6); err != nil {
			t.Fatalf("parsed tree invalid: %v\ninput: %q", err, src)
		}
		again, err := ParseNewick(parsed.Newick(), 1e-6)
		if err != nil {
			t.Fatalf("re-render failed to parse: %v\nnewick: %s", err, parsed.Newick())
		}
		if again.LeafCount() != parsed.LeafCount() {
			t.Fatalf("leaf count changed across round trip")
		}
	})
}
