package upgma

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"evotree/internal/matrix"
	"evotree/internal/seqsim"
	"evotree/internal/tree"
)

// referenceBuild is the merge loop with one tree per cluster, each merge
// copying both subtrees into a fresh tree with tree.Join. Build must
// return exactly its nodes, in its layout.
func referenceBuild(m Matrix, link Linkage) *tree.Tree {
	n := m.Len()
	if n == 1 {
		return tree.New(0)
	}
	type cluster struct {
		t    *tree.Tree
		size int
	}
	active := make([]*cluster, n)
	dist := make([][]float64, n)
	for i := 0; i < n; i++ {
		active[i] = &cluster{t: tree.New(i), size: 1}
		dist[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			dist[i][j] = m.At(i, j)
		}
	}
	alive := make([]int, n)
	for i := range alive {
		alive[i] = i
	}
	for len(alive) > 1 {
		bi, bj := 0, 1
		best := math.Inf(1)
		for x := 0; x < len(alive); x++ {
			for y := x + 1; y < len(alive); y++ {
				i, j := alive[x], alive[y]
				if dist[i][j] < best {
					best, bi, bj = dist[i][j], i, j
				}
			}
		}
		a, b := active[bi], active[bj]
		h := best / 2
		if ah := a.t.Height(); ah > h {
			h = ah
		}
		if bh := b.t.Height(); bh > h {
			h = bh
		}
		merged := &cluster{t: tree.Join(a.t, b.t, h), size: a.size + b.size}
		for _, k := range alive {
			if k == bi || k == bj {
				continue
			}
			var d float64
			switch link {
			case Average:
				d = (dist[bi][k]*float64(a.size) + dist[bj][k]*float64(b.size)) /
					float64(a.size+b.size)
			case Maximum:
				d = math.Max(dist[bi][k], dist[bj][k])
			case Minimum:
				d = math.Min(dist[bi][k], dist[bj][k])
			}
			dist[bi][k], dist[k][bi] = d, d
		}
		active[bi] = merged
		for x, k := range alive {
			if k == bj {
				alive = append(alive[:x], alive[x+1:]...)
				break
			}
		}
	}
	return active[alive[0]].t
}

// TestBuildMatchesReference pins Build's output node for node, Root and
// heights included, so Cost sums in the same order bit for bit: three
// linkages, n = 1..40, on heavily tied, uniform, ultrametric and
// mtDNA-like matrices.
func TestBuildMatchesReference(t *testing.T) {
	families := []struct {
		name string
		gen  func(rng *rand.Rand, n int) *matrix.Matrix
	}{
		{"metric1-4", func(rng *rand.Rand, n int) *matrix.Matrix { return matrix.RandomMetric(rng, n, 1, 4) }},
		{"random0100", matrix.Random0100},
		{"ultrametric", func(rng *rand.Rand, n int) *matrix.Matrix { return matrix.RandomUltrametric(rng, n, 100) }},
		{"seqsim", func(rng *rand.Rand, n int) *matrix.Matrix {
			ds, err := seqsim.Generate(rng, seqsim.Params{Species: n, SeqLen: 150, Rate: 1.2})
			if err != nil {
				t.Fatal(err)
			}
			return ds.Matrix
		}},
	}
	for _, f := range families {
		rng := rand.New(rand.NewSource(int64(len(f.name))))
		for n := 1; n <= 40; n++ {
			m := f.gen(rng, n)
			for _, link := range []Linkage{Average, Maximum, Minimum} {
				got, want := Build(m, link), referenceBuild(m, link)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s n=%d linkage %d: Build differs from the tree.Join reference\n got %v root %d\nwant %v root %d",
						f.name, n, link, got.Nodes, got.Root, want.Nodes, want.Root)
				}
				if gc, wc := got.Cost(), want.Cost(); math.Float64bits(gc) != math.Float64bits(wc) {
					t.Fatalf("%s n=%d linkage %d: cost %v, reference %v", f.name, n, link, gc, wc)
				}
			}
		}
	}
}

// TestBuildAlloc guards the one-array build: the number of objects Build
// allocates does not grow with n.
func TestBuildAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var counts []float64
	for _, n := range []int{8, 32, 64} {
		m := matrix.RandomMetric(rng, n, 1, 100)
		got := testing.AllocsPerRun(20, func() { Build(m, Maximum) })
		if got > 8 {
			t.Fatalf("Build allocated %v objects at n=%d, want at most 8", got, n)
		}
		counts = append(counts, got)
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Fatalf("Build allocations %v at n=8, 32, 64: want the same count at every n", counts)
	}
}
