package experiments

import (
	"fmt"
	"math/rand"
	"sync"

	"evotree/internal/cluster"
)

// NCS 2005 grid report, Tables 3–6: single machine vs a 16-node cluster vs
// the (higher-latency) grid, summarized by median, mean and worst time
// over 10 instances per species count; plus the cluster-16 / grid-16 /
// grid-24 comparison on 20-species instances.

func init() {
	register("grid-median", runnerGridStat("grid-median", "median computing time: single vs cluster vs grid (NCS'05 Table 3)", Median))
	register("grid-mean", runnerGridStat("grid-mean", "mean computing time: single vs cluster vs grid (NCS'05 Table 4)", Mean))
	register("grid-worst", runnerGridStat("grid-worst", "worst-case computing time: single vs cluster vs grid (NCS'05 Table 5)", Max))
	register("grid24", runGrid24)
}

func gridSweep(cfg Config) []int {
	return sweep(cfg, []int{12, 14, 16, 18, 20, 22}, []int{8, 10, 12})
}

// gridCache memoizes the simulation shared by tables 3–5.
var gridCache sync.Map

type gridResult struct {
	ns                 []int
	single, clus, grid [][]float64
	err                error
}

// gridRuns simulates every instance once per environment and returns the
// per-species-count sample vectors.
func gridRuns(cfg Config) (ns []int, single, clus, grid [][]float64, err error) {
	key := fmt.Sprintf("%d/%v", cfg.Seed, cfg.Quick)
	if v, ok := gridCache.Load(key); ok {
		r := v.(*gridResult)
		return r.ns, r.single, r.clus, r.grid, r.err
	}
	ns, single, clus, grid, err = gridRunsUncached(cfg)
	gridCache.Store(key, &gridResult{ns, single, clus, grid, err})
	return ns, single, clus, grid, err
}

func gridRunsUncached(cfg Config) (ns []int, single, clus, grid [][]float64, err error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	ns = gridSweep(cfg)
	reps := instances(cfg, 10)
	for _, n := range ns {
		var s1, s2, s3 []float64
		for r := 0; r < reps; r++ {
			m := hmdnaHard(rng, n)
			for i, ccfg := range []cluster.Config{
				cluster.ClusterConfig(1),
				cluster.ClusterConfig(16),
				cluster.GridConfig(16),
			} {
				ccfg.BB.MaxNodes = parCap(cfg)
				res, e := cluster.Simulate(m, ccfg)
				if e != nil {
					return nil, nil, nil, nil, e
				}
				switch i {
				case 0:
					s1 = append(s1, res.Makespan)
				case 1:
					s2 = append(s2, res.Makespan)
				case 2:
					s3 = append(s3, res.Makespan)
				}
			}
		}
		single = append(single, s1)
		clus = append(clus, s2)
		grid = append(grid, s3)
	}
	return ns, single, clus, grid, nil
}

func runnerGridStat(id, title string, stat func([]float64) float64) Runner {
	return func(cfg Config) (*Figure, error) {
		ns, single, clus, grid, err := gridRuns(cfg)
		if err != nil {
			return nil, err
		}
		f := &Figure{ID: id, Title: title, XLabel: "species", YLabel: "virtual time units"}
		for i, n := range ns {
			f.X = append(f.X, float64(n))
			f.AddPoint("single", stat(single[i]))
			f.AddPoint("cluster-16", stat(clus[i]))
			f.AddPoint("grid-16", stat(grid[i]))
		}
		f.Note("grid latency is 100x cluster latency; same protocol (see internal/cluster)")
		return f, nil
	}
}

// runGrid24 regenerates Table 6: per-instance times on cluster-16,
// grid-16 and grid-24 for 20-species data — the grid catches up by adding
// nodes.
func runGrid24(cfg Config) (*Figure, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := 20
	reps := instances(cfg, 8)
	if cfg.Quick {
		n = 12
	}
	f := &Figure{
		ID: "grid24", Title: "cluster-16 vs grid-16 vs grid-24, 20-species instances (NCS'05 Table 6)",
		XLabel: "instance", YLabel: "virtual time units",
	}
	wins := 0
	for r := 0; r < reps; r++ {
		m := hmdnaHard(rng, n)
		var times [3]float64
		for i, ccfg := range []cluster.Config{
			cluster.ClusterConfig(16),
			cluster.GridConfig(16),
			cluster.GridConfig(24),
		} {
			ccfg.BB.MaxNodes = parCap(cfg)
			res, err := cluster.Simulate(m, ccfg)
			if err != nil {
				return nil, err
			}
			times[i] = res.Makespan
		}
		f.X = append(f.X, float64(r+1))
		f.AddPoint("cluster-16", times[0])
		f.AddPoint("grid-16", times[1])
		f.AddPoint("grid-24", times[2])
		if times[2] < times[1] {
			wins++
		}
	}
	f.Note("grid-24 beats grid-16 on %d of %d instances (the report's point: more grid nodes offset latency)", wins, reps)
	return f, nil
}
