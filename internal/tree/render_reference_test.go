package tree_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"evotree/internal/seqsim"
	"evotree/internal/tree"
)

// referenceName is SpeciesName as fmt wrote it.
func referenceName(t *tree.Tree, s int) string {
	if names := t.Names(); s >= 0 && s < len(names) && names[s] != "" {
		return names[s]
	}
	return fmt.Sprintf("S%d", s+1)
}

// referenceEscape quotes a Newick label as fmt-era Newick did.
func referenceEscape(s string) string {
	if strings.ContainsAny(s, "(),:;' \t") {
		return "'" + strings.ReplaceAll(s, "'", "''") + "'"
	}
	return s
}

// referenceNewick is Newick written through fmt, each branch length with
// %g.
func referenceNewick(t *tree.Tree) string {
	var b strings.Builder
	var walk func(id int)
	walk = func(id int) {
		n := &t.Nodes[id]
		if n.Species >= 0 {
			b.WriteString(referenceEscape(referenceName(t, n.Species)))
		} else {
			b.WriteByte('(')
			walk(n.Left)
			b.WriteByte(',')
			walk(n.Right)
			b.WriteByte(')')
		}
		if n.Parent != tree.NoNode {
			fmt.Fprintf(&b, ":%g", t.Nodes[n.Parent].Height-n.Height)
		}
	}
	if len(t.Nodes) > 0 {
		walk(t.Root)
	}
	b.WriteByte(';')
	return b.String()
}

// referenceAscii is Ascii written through fmt, each height with %.6g and
// each line's prefix and connector concatenated.
func referenceAscii(t *tree.Tree) string {
	if len(t.Nodes) == 0 {
		return ""
	}
	var b strings.Builder
	var walk func(id int, prefix string, last, root bool)
	walk = func(id int, prefix string, last, root bool) {
		n := &t.Nodes[id]
		if !root {
			connector := "├─ "
			if last {
				connector = "└─ "
			}
			b.WriteString(prefix + connector)
		}
		if n.Species >= 0 {
			b.WriteString(referenceName(t, n.Species))
			b.WriteByte('\n')
			return
		}
		fmt.Fprintf(&b, "[%.6g]\n", n.Height)
		childPrefix := prefix
		if !root {
			if last {
				childPrefix += "   "
			} else {
				childPrefix += "│  "
			}
		}
		walk(n.Left, childPrefix, false, false)
		walk(n.Right, childPrefix, true, false)
	}
	walk(t.Root, "", true, true)
	return b.String()
}

// awkwardHeights are values where %g and %.6g have special cases to
// keep: signed zeros, infinities, NaN, subnormals, exponents at both ends
// and decimals no float64 holds exactly.
var awkwardHeights = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, math.SmallestNonzeroFloat64 * 3, 1e-300, 1e-7, 1e-5, 0.1 + 0.2,
	1.0 / 3, 123456.5, 999999.5, 1e6, 1e21, 1.7976931348623157e308, -2.5,
}

// randomTree joins n leaves in random order under random heights; a
// fifth of the heights, leaves included, come from awkwardHeights, and
// the names, when there are any, need quoting one time in three.
func randomTree(rng *rand.Rand, n int) *tree.Tree {
	height := func() float64 {
		if rng.Intn(5) == 0 {
			return awkwardHeights[rng.Intn(len(awkwardHeights))]
		}
		return rng.Float64() * math.Pow(10, float64(rng.Intn(9)-3))
	}
	parts := make([]*tree.Tree, n)
	for i := range parts {
		parts[i] = tree.New(i)
		parts[i].Nodes[0].Height = height()
	}
	for len(parts) > 1 {
		i := rng.Intn(len(parts))
		a := parts[i]
		parts[i] = parts[len(parts)-1]
		parts = parts[:len(parts)-1]
		j := rng.Intn(len(parts))
		parts[j] = tree.Join(a, parts[j], height())
	}
	t := parts[0]
	if rng.Intn(4) > 0 {
		awkward := []string{"a b", "it's", "(x)", "c:d", "tab\there", "semi;", "co,ma", "ünï", "", "''"}
		names := make([]string, n)
		for i := range names {
			if rng.Intn(3) == 0 {
				names[i] = awkward[rng.Intn(len(awkward))]
			} else {
				names[i] = fmt.Sprintf("sp%d", i)
			}
		}
		t.SetNames(names)
	}
	return t
}

// TestRenderingMatchesFmt requires Newick and Ascii to write the bytes
// the fmt renderers wrote, on random trees with awkward heights and names
// and on the clock trees seqsim draws, the same trees with every height
// negated as well, so that −0 heights and branch lengths occur.
func TestRenderingMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	trees := []*tree.Tree{{}, tree.New(0)}
	for range 300 {
		trees = append(trees, randomTree(rng, 1+rng.Intn(40)))
	}
	for _, n := range []int{40, 200, 600} {
		ds, err := seqsim.Generate(rng, seqsim.Params{Species: n, SeqLen: 150, Rate: 1.2})
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, ds.TrueTree)
	}
	var negated []*tree.Tree
	for _, tr := range trees {
		neg := tr.Clone()
		for i := range neg.Nodes {
			neg.Nodes[i].Height = -neg.Nodes[i].Height
		}
		negated = append(negated, neg)
	}
	trees = append(trees, negated...)
	for i, tr := range trees {
		if got, want := tr.Newick(), referenceNewick(tr); got != want {
			t.Fatalf("tree %d: Newick\n%s\nfmt wrote\n%s", i, got, want)
		}
		if got, want := tr.Ascii(), referenceAscii(tr); got != want {
			t.Fatalf("tree %d: Ascii\n%s\nfmt wrote\n%s", i, got, want)
		}
	}
}
