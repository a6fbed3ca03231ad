package verify

import (
	"math"
	"testing"
)

// TestRuleAblationIdenticalCosts toggles the propagation bound on and
// off across the oracle band, sequentially and in parallel, and asserts
// every configuration lands on the identical optimal cost — the bound's
// exactness-preservation contract, checked differentially against the
// rules-off sequential engine (itself oracle-validated by the
// differential suite).
func TestRuleAblationIdenticalCosts(t *testing.T) {
	base, err := engineByName("bb")
	if err != nil {
		t.Fatal(err)
	}
	var ablations []Engine
	for _, name := range []string{"bbprop", "pbbs4"} {
		e, err := engineByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ablations = append(ablations, e)
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, n := range []int{8, 12, 16} {
			kind := Kinds[int(seed+int64(n))%len(Kinds)]
			m, err := GenerateInstance(kind, n, seed)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := base.Run(m, 0, nil)
			if err != nil {
				t.Fatalf("bb on kind=%s n=%d seed=%d: %v", kind, n, seed, err)
			}
			tol := Tol(m)
			for _, e := range ablations {
				res, err := e.Run(m, 0, nil)
				if err != nil {
					t.Fatalf("%s on kind=%s n=%d seed=%d: %v", e.Name, kind, n, seed, err)
				}
				if math.Abs(res.Cost-ref.Cost) > tol {
					t.Errorf("%s on kind=%s n=%d seed=%d: cost %g != rules-off %g",
						e.Name, kind, n, seed, res.Cost, ref.Cost)
				}
				for _, f := range CheckTree(m, res.Tree, res.Cost) {
					t.Errorf("%s on kind=%s n=%d seed=%d: %s", e.Name, kind, n, seed, f)
				}
				for _, f := range CheckAccounting(res.Stats) {
					t.Errorf("%s on kind=%s n=%d seed=%d: %s", e.Name, kind, n, seed, f)
				}
			}
		}
	}
}
