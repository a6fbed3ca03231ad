package verify

import (
	"testing"
)

// TestDistDifferential sweeps the distributed farm engines (1-worker and
// 4-worker loopback farms) against the brute-force oracles across the
// oracle band. Every dist<N> run stands up a real coordinator and HTTP
// workers, so this is the protocol's end-to-end differential proof: lease
// dispatch, epoch-stamped bound broadcast, and result folding must
// preserve the exact optimum.
func TestDistDifferential(t *testing.T) {
	instances := 20
	if testing.Short() {
		instances = 8
	}
	engines, err := ParseEngines("bb,dist1,dist4")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Run(Config{
		Engines: engines,
		NLo:     4, NHi: 10,
		Instances: instances,
		Seed:      20260808,
	})
	if err != nil {
		t.Fatal(err)
	}
	reportSummary(t, sum)
	if sum.OracleRuns != sum.Instances {
		t.Errorf("only %d of %d instances were checked against an oracle", sum.OracleRuns, sum.Instances)
	}
}

// TestDistDifferentialFullBand extends the sweep to the top of the oracle
// band (n ≤ 16, subset-DP reference) — slow, so skipped in -short mode.
func TestDistDifferentialFullBand(t *testing.T) {
	if testing.Short() {
		t.Skip("full oracle band is slow in -short mode")
	}
	engines, err := ParseEngines("dist4")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Run(Config{
		Engines: engines,
		NLo:     13, NHi: 16,
		Instances: 4,
		Seed:      424242,
		Diff:      DiffConfig{OracleMax: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	reportSummary(t, sum)
	if sum.OracleRuns != sum.Instances {
		t.Errorf("only %d of %d instances were checked against an oracle", sum.OracleRuns, sum.Instances)
	}
}

// TestDistGoldenPaCT pins the farm to the paper's six-vertex example: the
// frozen optimum 12.25 and the compact-set clades of Lemma 1.
func TestDistGoldenPaCT(t *testing.T) {
	m := loadGolden(t, "pact6.dist")
	tol := Tol(m)
	engines, err := ParseEngines("dist1,dist3")
	if err != nil {
		t.Fatal(err)
	}
	const want = 12.25
	clades := [][]int{{0, 2}, {3, 5}, {0, 1, 2}, {0, 1, 2, 4}}
	for _, e := range engines {
		res, err := e.Run(m, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, f := range CheckTree(m, res.Tree, res.Cost) {
			t.Errorf("%s: %v", e.Name, f)
		}
		if !costsAgree(res.Cost, want, tol) {
			t.Errorf("%s: cost %g, frozen optimum %g", e.Name, res.Cost, want)
		}
		for _, clade := range clades {
			if res.Tree.CladeCheck(clade) != nil {
				t.Errorf("%s: tree splits expected clade %v", e.Name, clade)
			}
		}
	}
}

// TestDistDeterministicCost re-runs the 3-worker farm 50 times on fixed
// seeds: scheduling (lease order, broadcast timing) is nondeterministic,
// but the proven cost must not be — every run must return the same
// optimum. Halved in -short mode.
func TestDistDeterministicCost(t *testing.T) {
	runs := 50
	if testing.Short() {
		runs = 25
	}
	e, err := engineByName("dist3")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{7, 8} {
		m, err := GenerateInstance("uniform", 9, seed)
		if err != nil {
			t.Fatal(err)
		}
		_, want, err := OracleDP(m)
		if err != nil {
			t.Fatal(err)
		}
		tol := Tol(m)
		for i := 0; i < runs; i++ {
			res, err := e.Run(m, 0, nil)
			if err != nil {
				t.Fatalf("seed %d run %d: %v", seed, i, err)
			}
			if !res.Optimal {
				t.Fatalf("seed %d run %d: not optimal", seed, i)
			}
			if !costsAgree(res.Cost, want, tol) {
				t.Fatalf("seed %d run %d: cost %g, oracle %g — farm scheduling leaked into the result",
					seed, i, res.Cost, want)
			}
		}
	}
}
