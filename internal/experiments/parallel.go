package experiments

import (
	"fmt"
	"math/rand"
	"sync"

	"evotree/internal/bb"
	"evotree/internal/cluster"
	"evotree/internal/matrix"
)

// HPC-Asia 2005, Figures 1–8: the parallel branch-and-bound on the
// simulated 16-node cluster, against a single node, with and without the
// 3-3 relationship, on mtDNA-surrogate and random workloads.
//
// Virtual makespans (deterministic discrete-event model) stand in for the
// authors' wall-clock seconds; see DESIGN.md §5 for the substitution.
// Simulations are memoized across runners (figures 1, 2 and 3 replay the
// same searches), keyed by workload, instance and machine configuration.

func init() {
	register("par1", runnerParTime("par1", "computing time, 16 processors, mtDNA surrogate (HPC-Asia Fig. 1)", 16, mtWorkload))
	register("par2", runnerParTime("par2", "computing time, single processor, mtDNA surrogate (HPC-Asia Fig. 2)", 1, mtWorkload))
	register("par3", runnerParSpeedup("par3", "speedup, 16 vs 1 processors, mtDNA surrogate (HPC-Asia Fig. 3)", mtWorkload))
	register("par4", runnerPar33("par4", "computing time with vs without 3-3, 16 processors, mtDNA surrogate (HPC-Asia Fig. 4)", mtWorkload))
	register("par5", runnerParTime("par5", "computing time, 16 processors, random data (HPC-Asia Fig. 5)", 16, randWorkload))
	register("par6", runnerParSpeedup("par6", "speedup, 16 vs 1 processors, random data (HPC-Asia Fig. 6)", randWorkload))
	register("par7", runnerParTime("par7", "computing time, single processor, random data (HPC-Asia Fig. 7)", 1, randWorkload))
	register("par8", runnerPar33("par8", "computing time with vs without 3-3, 16 processors, random data (HPC-Asia Fig. 8)", randWorkload))
}

// gen draws one instance of a workload family.
type gen func(rng *rand.Rand, n int) *matrix.Matrix

// workload is a named instance family with its species sweep.
type workload struct {
	name  string
	fn    gen
	full  []int
	quick []int
}

var mtWorkload = workload{
	name:  "mtdna-hard",
	fn:    hmdnaHard,
	full:  []int{12, 16, 20, 24, 28},
	quick: []int{8, 10, 12},
}

// The random sweep stops at 20 species: the paper itself observes that
// the single-processor search becomes unendurable beyond ~26 species, and
// the uniform workload hits that wall earlier.
var randWorkload = workload{
	name:  "uniform",
	fn:    matrix.Random0100,
	full:  []int{12, 14, 16, 18, 20},
	quick: []int{8, 10},
}

func (w workload) sweep(cfg Config) []int { return sweep(cfg, w.full, w.quick) }

func parCap(cfg Config) int64 {
	if cfg.Quick {
		return 100_000
	}
	return 300_000
}

func parReps(cfg Config) int { return instances(cfg, 3) }

// instanceOf deterministically draws the r-th instance of size n for a
// workload: each (workload, seed, n, r) maps to a fixed matrix, so every
// runner sees the same instances and the simulation cache hits.
func instanceOf(cfg Config, w workload, n, r int) *matrix.Matrix {
	seed := cfg.Seed ^ int64(n)<<20 ^ int64(r)<<8 ^ int64(len(w.name))
	return w.fn(rand.New(rand.NewSource(seed)), n)
}

// simCache memoizes simulation results across runners.
var simCache sync.Map

type simOutcome struct {
	res *cluster.Result
	err error
}

// simulateCached runs (or replays) one simulation.
func simulateCached(cfg Config, w workload, n, r, nodes int, opts bb.Options) (*cluster.Result, error) {
	key := fmt.Sprintf("%s/%d/%v/%d/%d/%d/%v/%v", w.name, cfg.Seed, cfg.Quick, n, r, nodes,
		opts.ThreeThree, opts.ThreeThreeAll)
	if v, ok := simCache.Load(key); ok {
		o := v.(*simOutcome)
		return o.res, o.err
	}
	ccfg := cluster.ClusterConfig(nodes)
	ccfg.BB = opts
	ccfg.BB.MaxNodes = parCap(cfg)
	res, err := cluster.Simulate(instanceOf(cfg, w, n, r), ccfg)
	simCache.Store(key, &simOutcome{res, err})
	return res, err
}

func runnerParTime(id, title string, nodes int, w workload) Runner {
	return func(cfg Config) (*Figure, error) {
		f := &Figure{ID: id, Title: title, XLabel: "species", YLabel: "virtual time units"}
		capped := 0
		for _, n := range w.sweep(cfg) {
			var ts []float64
			for r := 0; r < parReps(cfg); r++ {
				res, err := simulateCached(cfg, w, n, r, nodes, bb.DefaultOptions())
				if err != nil {
					return nil, err
				}
				if res.Capped {
					capped++
				}
				ts = append(ts, res.Makespan)
			}
			f.X = append(f.X, float64(n))
			f.AddPoint("makespan", Mean(ts))
		}
		if capped > 0 {
			f.Note("%d runs hit the expansion cap (%d nodes) — the paper reports the same wall beyond ~26 species", capped, parCap(cfg))
		}
		return f, nil
	}
}

func runnerParSpeedup(id, title string, w workload) Runner {
	return func(cfg Config) (*Figure, error) {
		f := &Figure{ID: id, Title: title, XLabel: "species", YLabel: "speedup T(1)/T(16)"}
		super, total := 0, 0
		for _, n := range w.sweep(cfg) {
			var sp []float64
			for r := 0; r < parReps(cfg); r++ {
				one, err := simulateCached(cfg, w, n, r, 1, bb.DefaultOptions())
				if err != nil {
					return nil, err
				}
				many, err := simulateCached(cfg, w, n, r, 16, bb.DefaultOptions())
				if err != nil {
					return nil, err
				}
				if many.Makespan > 0 {
					s := one.Makespan / many.Makespan
					sp = append(sp, s)
					total++
					if s > 16 {
						super++
					}
				}
			}
			f.X = append(f.X, float64(n))
			f.AddPoint("speedup", Mean(sp))
			f.AddPoint("linear", 16)
		}
		f.Note("super-linear (> 16x) on %d of %d instances (the paper reports super-linear speedup)", super, total)
		return f, nil
	}
}

func runnerPar33(id, title string, w workload) Runner {
	return func(cfg Config) (*Figure, error) {
		f := &Figure{ID: id, Title: title, XLabel: "species", YLabel: "virtual time units"}
		var worstCostGap float64
		for _, n := range w.sweep(cfg) {
			var with, without []float64
			for r := 0; r < parReps(cfg); r++ {
				off, err := simulateCached(cfg, w, n, r, 16, bb.DefaultOptions())
				if err != nil {
					return nil, err
				}
				on, err := simulateCached(cfg, w, n, r, 16, bb.PaperOptions())
				if err != nil {
					return nil, err
				}
				with = append(with, on.Makespan)
				without = append(without, off.Makespan)
				if off.Cost > 0 {
					if g := (on.Cost - off.Cost) / off.Cost; g > worstCostGap {
						worstCostGap = g
					}
				}
			}
			f.X = append(f.X, float64(n))
			f.AddPoint("with 3-3", Mean(with))
			f.AddPoint("without 3-3", Mean(without))
		}
		f.Note("worst cost deviation introduced by 3-3: %.2f%% (paper reports identical results on its data)", 100*worstCostGap)
		return f, nil
	}
}
