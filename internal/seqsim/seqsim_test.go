package seqsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGenerateBasicShape(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	ds, err := Generate(rng, Params{Species: 26})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Matrix.Len() != 26 {
		t.Fatalf("matrix size %d, want 26", ds.Matrix.Len())
	}
	if len(ds.Sequences) != 26 {
		t.Fatalf("%d sequences, want 26", len(ds.Sequences))
	}
	for i, s := range ds.Sequences {
		if len(s) != 600 {
			t.Fatalf("sequence %d has length %d, want default 600", i, len(s))
		}
		for _, b := range s {
			if b != 'A' && b != 'C' && b != 'G' && b != 'T' {
				t.Fatalf("sequence %d contains non-DNA byte %q", i, b)
			}
		}
	}
	if err := ds.Matrix.Check(); err != nil {
		t.Fatal(err)
	}
	if !ds.Matrix.IsMetric() {
		t.Fatal("Hamming matrix must be a metric")
	}
	if err := ds.TrueTree.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
	if got := ds.TrueTree.LeafCount(); got != 26 {
		t.Fatalf("true tree has %d leaves", got)
	}
}

func TestHammingMatrixIsIntegerMetric(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds, err := Generate(rng, Params{Species: 4 + int(seed%7&0xf)%10, SeqLen: 120})
		if err != nil {
			return false
		}
		n := ds.Matrix.Len()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := ds.Matrix.At(i, j)
				if v != math.Trunc(v) || v < 0 || v > 120 {
					return false
				}
			}
		}
		return ds.Matrix.IsMetric()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNearUltrametricity(t *testing.T) {
	// With a strict clock the matrix should be close to ultrametric:
	// measure the worst three-point violation relative to the scale.
	rng := rand.New(rand.NewSource(51))
	ds, err := Generate(rng, Params{Species: 20, SeqLen: 2000, Rate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	m := ds.Matrix
	n := m.Len()
	worst := 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for k := 0; k < n; k++ {
				if k == i || k == j {
					continue
				}
				if v := m.At(i, j) - math.Max(m.At(i, k), m.At(j, k)); v > worst {
					worst = v
				}
			}
		}
	}
	if scale := m.MaxOff(); worst > 0.35*scale {
		t.Fatalf("three-point violation %g too large relative to scale %g", worst, scale)
	}
}

func TestCoalescentTreeShape(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, n := range []int{1, 2, 5, 30} {
		tr := CoalescentTree(rng, n)
		if err := tr.Validate(1e-12); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := tr.LeafCount(); got != n {
			t.Fatalf("n=%d: %d leaves", n, got)
		}
		if !tr.IsUltrametricTree(1e-9) {
			t.Fatalf("n=%d: coalescent tree must be ultrametric", n)
		}
	}
}

func TestHamming(t *testing.T) {
	if d := Hamming([]byte("ACGT"), []byte("ACGT")); d != 0 {
		t.Fatalf("d=%d, want 0", d)
	}
	if d := Hamming([]byte("ACGT"), []byte("TGCA")); d != 4 {
		t.Fatalf("d=%d, want 4", d)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on length mismatch")
		}
	}()
	Hamming([]byte("AC"), []byte("ACG"))
}

func TestGenerateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	if _, err := Generate(rng, Params{Species: 0}); err == nil {
		t.Fatal("want error for zero species")
	}
	if _, err := Generate(rng, Params{Species: 3, SeqLen: -1}); err == nil {
		t.Fatal("want error for negative length")
	}
}
