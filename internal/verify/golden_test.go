package verify

import (
	"os"
	"path/filepath"
	"testing"

	"evotree/internal/matrix"
)

// goldenCase pins a corpus matrix to its known minimum ultrametric tree
// cost. The costs were computed independently by both oracles and
// confirmed by every exact engine; they are frozen here so any future
// regression in solver or oracle shows up as a golden diff, not a silent
// consensus shift.
type goldenCase struct {
	file string
	want float64
	// clades that must appear in every optimal realization checked here
	// (indices into the matrix order). Empty means "only check the cost".
	clades [][]int
}

var goldenCases = []goldenCase{
	{
		// The six-vertex example of the paper's Section 3.1 (figures 3–5),
		// also used by examples/compactsets. Compact sets (v1,v3), (v4,v6),
		// (v1,v2,v3), (v1,v2,v3,v5) must appear as clades (Lemma 1).
		file:   "pact6.dist",
		want:   12.25,
		clades: [][]int{{0, 2}, {3, 5}, {0, 1, 2}, {0, 1, 2, 4}},
	},
	{
		// Paper-style 8-species primate distance table (near-additive).
		file: "primates8.dist",
		want: 52.6,
	},
	{
		// Two clean clusters: ((a,b):1, (c,d):2) under root height 4;
		// ω = 1 + 2 + 4 + 4 = 11, hand-checkable.
		file:   "two-clusters4.dist",
		want:   11,
		clades: [][]int{{0, 1}, {2, 3}},
	},
	{
		// Equilateral triangle d = 6: every topology costs 3 + 3 + 3 = 9.
		file: "equilateral3.dist",
		want: 9,
	},
}

func loadGolden(t *testing.T, file string) *matrix.Matrix {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	m, err := matrix.ParseString(string(b))
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return m
}

// TestGoldenCorpus runs every engine on every corpus matrix and holds
// exact engines to the frozen optimum (heuristics only to the one-sided
// bounds).
func TestGoldenCorpus(t *testing.T) {
	engines, err := ParseEngines("")
	if err != nil {
		t.Fatal(err)
	}
	for _, gc := range goldenCases {
		m := loadGolden(t, gc.file)
		tol := Tol(m)

		// Both oracles must reproduce the frozen value.
		if _, c, err := OracleDP(m); err != nil {
			t.Fatalf("%s: %v", gc.file, err)
		} else if !costsAgree(c, gc.want, tol) {
			t.Errorf("%s: OracleDP = %g, frozen optimum %g", gc.file, c, gc.want)
		}
		if m.Len() <= OracleEnumMax {
			if _, c, err := OracleEnum(m); err != nil {
				t.Fatalf("%s: %v", gc.file, err)
			} else if !costsAgree(c, gc.want, tol) {
				t.Errorf("%s: OracleEnum = %g, frozen optimum %g", gc.file, c, gc.want)
			}
		}

		for _, e := range engines {
			res, err := e.Run(m, 0, nil)
			if err != nil {
				t.Errorf("%s/%s: %v", gc.file, e.Name, err)
				continue
			}
			for _, f := range CheckTree(m, res.Tree, res.Cost) {
				t.Errorf("%s/%s: %v", gc.file, e.Name, f)
			}
			if e.Exact {
				if !costsAgree(res.Cost, gc.want, tol) {
					t.Errorf("%s/%s: cost %g, frozen optimum %g", gc.file, e.Name, res.Cost, gc.want)
				}
				for _, clade := range gc.clades {
					if res.Tree.CladeCheck(clade) != nil {
						t.Errorf("%s/%s: optimal tree splits expected clade %v", gc.file, e.Name, clade)
					}
				}
			} else if res.Cost < gc.want-tol {
				t.Errorf("%s/%s: heuristic cost %g beats frozen optimum %g", gc.file, e.Name, res.Cost, gc.want)
			}
		}
	}
}
