package pbb

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"evotree/internal/bb"
	"evotree/internal/matrix"
)

// TestMasterHonorsMaxNodes pins the budget fix: the seed implementation let
// the master phase branch freely and only charged the workers, so a tiny
// MaxNodes on an instance the master could exhaust alone reported
// Optimal=true with far more expansions than the cap (and seeded the worker
// budget negative otherwise).
func TestMasterHonorsMaxNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	m := matrix.RandomMetric(rng, 8, 50, 100)
	opt := DefaultOptions(8)
	opt.InitialFanout = 16 // target 128 subproblems: the master would do real work
	opt.MaxNodes = 2
	res, err := Solve(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimal {
		t.Fatal("budget-truncated search must not claim optimality")
	}
	// The master stops exactly at the cap and hands the workers a zero
	// (never negative) remainder, so they drain without expanding; allow
	// one racing batch per worker anyway.
	if res.Stats.Expanded > opt.MaxNodes+int64(opt.Workers) {
		t.Fatalf("expanded %d with MaxNodes=%d", res.Stats.Expanded, opt.MaxNodes)
	}
	if res.Tree == nil {
		t.Fatal("budgeted search must return the UPGMM incumbent")
	}
}

// TestMasterHonorsContext pins the cancellation half of the same fix: an
// already-cancelled context must stop the master before it expands anything.
func TestMasterHonorsContext(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m := matrix.Random0100(rng, 14)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := DefaultOptions(4)
	opt.Ctx = ctx
	res, err := Solve(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimal {
		t.Fatal("cancelled search must not claim optimality")
	}
	if res.Stats.Expanded != 0 {
		t.Fatalf("cancelled-before-start search expanded %d nodes", res.Stats.Expanded)
	}
	if res.Tree == nil {
		t.Fatal("cancelled search must return the UPGMM incumbent")
	}
}

// TestDonationStress hammers the two-level load balancer with many workers
// on hard instances; run with -race it exercises the donation path (pool
// popWorst and stack-bottom donations), node migration between worker-owned
// free lists, and the incumbent broadcast.
func TestDonationStress(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 4; trial++ {
		m := matrix.Random0100(rng, 12)
		seq, err := bb.Solve(m, bb.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(m, DefaultOptions(8))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Cost-seq.Cost) > 1e-9 {
			t.Fatalf("trial %d: parallel cost %g, sequential %g", trial, res.Cost, seq.Cost)
		}
		if !res.Tree.Feasible(m, 1e-9) {
			t.Fatalf("trial %d: infeasible tree", trial)
		}
	}
}
