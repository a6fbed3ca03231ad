package cluster

import (
	"math"
	"math/rand"
	"testing"

	"evotree/internal/bb"
	"evotree/internal/matrix"
)

func TestSimulationMatchesExactCost(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 8; trial++ {
		n := 6 + rng.Intn(4)
		m := matrix.RandomMetric(rng, n, 50, 100)
		seq, err := bb.Solve(m, bb.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, nodes := range []int{1, 4, 16} {
			res, err := Simulate(m, ClusterConfig(nodes))
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(res.Cost-seq.Cost) > 1e-9 {
				t.Fatalf("trial %d nodes %d: simulated cost %g, exact %g",
					trial, nodes, res.Cost, seq.Cost)
			}
		}
	}
}

func TestSimulationIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m := matrix.RandomMetric(rng, 10, 50, 100)
	a, err := Simulate(m, ClusterConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(m, ClusterConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Expanded != b.Expanded || a.Messages != b.Messages {
		t.Fatalf("simulation not deterministic: %+v vs %+v", a, b)
	}
}

func TestSingleNodeMakespanTracksExpansions(t *testing.T) {
	// With one slave and no pool traffic beyond the initial dispatch, the
	// makespan is dominated by expansions × TBranch.
	rng := rand.New(rand.NewSource(42))
	m := matrix.RandomMetric(rng, 9, 50, 100)
	cfg := ClusterConfig(1)
	cfg.Latency, cfg.PerByte = 0, 0
	res, err := Simulate(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(res.Expanded) * cfg.TBranch; math.Abs(res.Makespan-want) > 1e-6 {
		t.Fatalf("makespan %g, want expansions×TBranch = %g", res.Makespan, want)
	}
}

func TestParallelSimulationNoSlowerInVirtualTime(t *testing.T) {
	// On hard instances 16 virtual nodes should not have a longer
	// makespan than 1 node (communication is cheap in ClusterConfig).
	rng := rand.New(rand.NewSource(43))
	slower := 0
	for trial := 0; trial < 6; trial++ {
		m := matrix.RandomMetric(rng, 11, 50, 100)
		s, seq, par, err := Speedup(m, ClusterConfig(16), 16)
		if err != nil {
			t.Fatal(err)
		}
		if s < 1 {
			slower++
		}
		if seq.Cost != par.Cost {
			t.Fatalf("speedup run changed the optimum: %g vs %g", seq.Cost, par.Cost)
		}
	}
	if slower > 1 {
		t.Fatalf("parallel virtual makespan slower on %d/6 hard instances", slower)
	}
}

func TestGridLatencyHurtsSmallInstances(t *testing.T) {
	// On a small instance the grid's 100× latency must not make it faster
	// than the cluster at equal node count.
	rng := rand.New(rand.NewSource(44))
	m := matrix.RandomMetric(rng, 8, 50, 100)
	cl, err := Simulate(m, ClusterConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	gr, err := Simulate(m, GridConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if gr.Makespan < cl.Makespan {
		t.Fatalf("grid (%g) faster than cluster (%g) despite higher latency",
			gr.Makespan, cl.Makespan)
	}
}

func TestEfficiencyBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	m := matrix.RandomMetric(rng, 10, 50, 100)
	res, err := Simulate(m, ClusterConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	eff := res.Efficiency(4)
	if eff < 0 || eff > 1+1e-9 {
		t.Fatalf("efficiency %g out of [0,1]", eff)
	}
}

func TestHeterogeneousSpeedsSlowDownTheRun(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	m := matrix.RandomMetric(rng, 10, 50, 100)
	fast := ClusterConfig(4)
	slow := ClusterConfig(4)
	slow.Speeds = []float64{0.5, 0.5, 0.5, 0.5}
	rf, err := Simulate(m, fast)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Simulate(m, slow)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Makespan <= rf.Makespan {
		t.Fatalf("half-speed nodes must take longer: %g vs %g", rs.Makespan, rf.Makespan)
	}
	// Defaulting: zero/short Speeds arrays behave like speed 1.
	def := ClusterConfig(4)
	def.Speeds = []float64{0, -1}
	rd, err := Simulate(m, def)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Makespan != rf.Makespan {
		t.Fatalf("non-positive speeds must default to 1: %g vs %g", rd.Makespan, rf.Makespan)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := ClusterConfig(16).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := ClusterConfig(0)
	bad.Nodes = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("want error for zero nodes")
	}
	neg := ClusterConfig(2)
	neg.Latency = -1
	if err := neg.Validate(); err == nil {
		t.Fatal("want error for negative latency")
	}
}

func TestMaxExpansionsCapsSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	m := matrix.Random0100(rng, 14)
	cfg := ClusterConfig(4)
	cfg.BB.MaxNodes = 20
	res, err := Simulate(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Capped {
		t.Fatal("hard instance within 20 expansions must report Capped")
	}
	if res.Expanded > 25 {
		t.Fatalf("expanded %d far beyond the cap", res.Expanded)
	}
	if res.Cost <= 0 {
		t.Fatal("capped run must still carry the incumbent cost")
	}
}

// TestNoInitialUBReachesTheModel: the model seeds its bound like every
// engine, so NoInitialUB starts it from +Inf instead of the UPGMM cost.
// Without the seed the search expands a different set of nodes on most
// inputs, and it still proves bb.Solve's optimum.
func TestNoInitialUBReachesTheModel(t *testing.T) {
	changed := 0
	for seed := int64(1); seed <= 20; seed++ {
		m := matrix.Random0100(rand.New(rand.NewSource(seed)), 10)
		seq, err := bb.Solve(m, bb.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		seeded, err := Simulate(m, ClusterConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		cfg := ClusterConfig(4)
		cfg.BB.NoInitialUB = true
		unseeded, err := Simulate(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if unseeded.Cost != seq.Cost {
			t.Errorf("seed %d: NoInitialUB cost %v, bb.Solve %v", seed, unseeded.Cost, seq.Cost)
		}
		if unseeded.Expanded != seeded.Expanded {
			changed++
		}
	}
	if changed < 15 {
		t.Errorf("NoInitialUB changed the expansion count on %d of 20 inputs, want at least 15", changed)
	}
}
