// Package seqsim synthesizes the Human Mitochondrial DNA workloads of the
// papers. We do not ship the authors' HMDNA distance matrices, so the
// package simulates the process that produced them: DNA sequences evolving
// under a Jukes–Cantor substitution model with a strict molecular clock
// (the very assumption behind ultrametric trees) along a random coalescent
// tree, followed by pairwise Hamming-distance computation. The resulting
// integer matrices are metrics, nearly ultrametric, and exercise the
// branch-and-bound and the compact-set technique in the same difficulty
// regime the paper reports.
package seqsim

import (
	"fmt"
	"math"
	"math/rand"

	"evotree/internal/matrix"
	"evotree/internal/tree"
)

// Alphabet is the DNA alphabet used by the simulator.
var Alphabet = []byte("ACGT")

// Params configure a simulation.
type Params struct {
	Species int     // number of taxa (the papers use 12..38)
	SeqLen  int     // sites per sequence; default 600 (mtDNA control-region scale)
	Rate    float64 // substitutions per site per unit height; default 0.4
}

// withDefaults fills zero fields.
func (p Params) withDefaults() Params {
	if p.SeqLen == 0 {
		p.SeqLen = 600
	}
	if p.Rate == 0 {
		p.Rate = 0.4
	}
	return p
}

// Dataset is one simulated mtDNA instance.
type Dataset struct {
	Matrix    *matrix.Matrix // pairwise Hamming distances (integer metric)
	Sequences [][]byte       // the leaf sequences, indexed by species
	TrueTree  *tree.Tree     // the clock tree the sequences evolved on
}

// Generate simulates one dataset.
func Generate(rng *rand.Rand, p Params) (*Dataset, error) {
	p = p.withDefaults()
	if p.Species < 1 {
		return nil, fmt.Errorf("seqsim: need at least 1 species, got %d", p.Species)
	}
	if p.SeqLen < 1 {
		return nil, fmt.Errorf("seqsim: non-positive sequence length %d", p.SeqLen)
	}
	t := CoalescentTree(rng, p.Species)
	seqs := evolve(rng, t, p)
	names := make([]string, p.Species)
	for i := range names {
		names[i] = fmt.Sprintf("mt%02d", i+1)
	}
	m, err := matrix.NewWithNames(names)
	if err != nil {
		return nil, err
	}
	for i := 0; i < p.Species; i++ {
		for j := i + 1; j < p.Species; j++ {
			m.Set(i, j, float64(Hamming(seqs[i], seqs[j])))
		}
	}
	return &Dataset{Matrix: m, Sequences: seqs, TrueTree: t}, nil
}

// CoalescentTree grows a random ultrametric (clock) tree over n species:
// starting from n lineages at height 0, repeatedly join two uniformly
// chosen lineages at a height that increases by an exponential waiting time
// scaled by the number of remaining pairs — the standard coalescent.
func CoalescentTree(rng *rand.Rand, n int) *tree.Tree {
	lineages := make([]*tree.Tree, n)
	for i := 0; i < n; i++ {
		lineages[i] = tree.New(i)
	}
	h := 0.0
	for len(lineages) > 1 {
		k := float64(len(lineages))
		h += rng.ExpFloat64() / (k * (k - 1) / 2)
		i := rng.Intn(len(lineages))
		j := rng.Intn(len(lineages) - 1)
		if j >= i {
			j++
		}
		joined := tree.Join(lineages[i], lineages[j], h)
		// Remove j first (the higher index may shift).
		if i < j {
			i, j = j, i
		}
		lineages[i] = lineages[len(lineages)-1]
		lineages = lineages[:len(lineages)-1]
		if j == len(lineages) {
			j = i
		}
		lineages[j] = joined
	}
	return lineages[0]
}

// evolve runs Jukes–Cantor substitution from a random root sequence down
// every edge of the clock tree and returns the leaf sequences.
func evolve(rng *rand.Rand, t *tree.Tree, p Params) [][]byte {
	seqs := make([][]byte, p.Species)
	root := make([]byte, p.SeqLen)
	for i := range root {
		root[i] = Alphabet[rng.Intn(4)]
	}
	var walk func(id int, seq []byte)
	walk = func(id int, seq []byte) {
		n := t.Nodes[id]
		if n.Species >= 0 {
			seqs[n.Species] = seq
			return
		}
		for _, ch := range []int{n.Left, n.Right} {
			ell := (n.Height - t.Nodes[ch].Height) * p.Rate
			child := mutate(rng, seq, ell)
			walk(ch, child)
		}
	}
	walk(t.Root, root)
	return seqs
}

// mutate applies Jukes–Cantor substitution along a branch with expected ell
// substitutions per site: each site changes with probability
// ¾(1 − e^(−4ℓ/3)), uniformly to one of the three other bases.
func mutate(rng *rand.Rand, seq []byte, ell float64) []byte {
	pChange := 0.75 * (1 - math.Exp(-4*ell/3))
	out := append([]byte(nil), seq...)
	for i := range out {
		if rng.Float64() < pChange {
			b := Alphabet[rng.Intn(3)]
			if b == out[i] {
				b = Alphabet[3]
			}
			out[i] = b
		}
	}
	return out
}

// Hamming returns the number of differing sites between equal-length
// sequences; it panics on a length mismatch.
func Hamming(a, b []byte) int {
	if len(a) != len(b) {
		panic("seqsim: Hamming over sequences of different length")
	}
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}
