package compact

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"evotree/internal/matrix"
)

// canon normalizes a family of sets for comparison.
func canon(sets []Set) []string {
	out := make([]string, len(sets))
	for i, s := range sets {
		out[i] = fmt.Sprint([]int(s))
	}
	sort.Strings(out)
	return out
}

func TestThresholdAgreesWithKruskalOnPaperExample(t *testing.T) {
	m := paperExample(t)
	a, err := Find(m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FindByThreshold(m)
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := canon(a), canon(b)
	if fmt.Sprint(ca) != fmt.Sprint(cb) {
		t.Fatalf("Kruskal %v vs threshold %v", ca, cb)
	}
}

func TestThresholdAgreesWithKruskalProperty(t *testing.T) {
	// The two independent detection algorithms must return the same
	// family on any matrix, including ones with many ties.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(39)
		var m *matrix.Matrix
		switch seed % 4 {
		case 0:
			m = matrix.RandomMetric(rng, n, 50, 100)
		case 1:
			m = matrix.RandomMetric(rng, n, 1, 4) // heavy ties
		case 2:
			m = matrix.PerturbedUltrametric(rng, n, 100, 0.2)
		default:
			m = seqsimMatrix(t, seed, n) // Hamming distances: tie-heavy
		}
		a, err := Find(m)
		if err != nil {
			return false
		}
		b, err := FindByThreshold(m)
		if err != nil {
			return false
		}
		return fmt.Sprint(canon(a)) == fmt.Sprint(canon(b))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestThresholdEmpty(t *testing.T) {
	if _, err := FindByThreshold(matrix.New(0)); err == nil {
		t.Fatal("want error for empty matrix")
	}
	sets, err := FindByThreshold(matrix.New(1))
	if err != nil || len(sets) != 0 {
		t.Fatalf("n=1: %v %v", sets, err)
	}
}
