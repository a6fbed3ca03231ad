package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"evotree/internal/bb"
	"evotree/internal/matrix"
	"evotree/internal/pbb"
)

// The scaling experiment sweeps the work-stealing parallel engine across
// worker counts on the kernel benchmark matrices and reports throughput
// (expanded nodes per second) next to the recorded throughput of the
// previous centralized-pool scheduler. With Config.BenchOut set it writes
// the machine-readable report checked in as BENCH_pr5.json; outside Quick
// mode it fails outright if the 8-worker throughput regresses below the
// old scheduler's baseline, which is what the CI bench gate runs.

func init() { register("scaling", runScaling) }

// scalingBaseline is the centralized mutex+cond scheduler of BENCH_pr2.json
// (commit cc49190) measured with this same harness on the same seeded
// matrices (go1.24, linux/amd64): expanded nodes per second at 8 workers.
// Keys are "n=<species>/workers=<count>".
var scalingBaseline = map[string]float64{
	"n=13/workers=8": 744006, // 733 nodes/op at 985µs/op
	"n=16/workers=8": 635077, // 2966 nodes/op at 4.67ms/op
}

// scalingEntry is one (matrix size, worker count) row of the JSON report.
type scalingEntry struct {
	N           int     `json:"n"`
	Workers     int     `json:"workers"`
	NsPerOp     float64 `json:"ns_per_op"`
	NodesPerOp  int64   `json:"nodes_per_op"`
	NodesPerSec float64 `json:"nodes_per_sec"`
	OptimalCost float64 `json:"optimal_cost"`
	Steals      int64   `json:"steals_per_op"`
	Parks       int64   `json:"parks_per_op"`
	// Oversubscribed marks rows where the worker count exceeds the procs
	// actually schedulable (GOMAXPROCS): throughput there measures context
	// switching as much as the scheduler, and speedup claims don't apply.
	Oversubscribed bool `json:"oversubscribed,omitempty"`
	// BaselineNodesPerSec and ThroughputSpeedup are set where the old
	// scheduler's number is on record (8 workers).
	BaselineNodesPerSec float64 `json:"baseline_nodes_per_sec,omitempty"`
	ThroughputSpeedup   float64 `json:"throughput_speedup,omitempty"`
}

// scalingReport is the schema of BENCH_pr5.json.
type scalingReport struct {
	Schema    string `json:"schema"` // "evotree-scaling-bench/v1"
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	GoVersion string `json:"goversion"`
	// NumCPU and GoMaxProcs are recorded separately: in a containerized CI
	// runner NumCPU reports the host's cores while the cgroup quota (and
	// hence GOMAXPROCS) may be far smaller — BENCH_pr5.json's "num_cpu": 1
	// next to 8-worker speedup claims was exactly this confusion.
	NumCPU     int            `json:"num_cpu"`
	GoMaxProcs int            `json:"gomaxprocs"`
	Baseline   string         `json:"baseline"`
	Entries    []scalingEntry `json:"entries"`
}

// timePerOp returns the mean wall time in nanoseconds of reps calls of
// fn, after one warm-up call (pools, code paths) outside the measured
// window.
func timePerOp(reps int, fn func()) float64 {
	fn()
	runtime.GC()
	start := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps)
}

func runScaling(cfg Config) (*Figure, error) {
	sizes := []int{13, 16}
	sweep := []int{1, 2, 4, 8}
	reps := 10
	if cfg.Quick {
		sizes = []int{10}
		sweep = []int{1, 2}
		reps = 2
	} else if n := runtime.NumCPU(); n > sweep[len(sweep)-1] {
		sweep = append(sweep, n)
	}
	fig := &Figure{
		ID:     "scaling",
		Title:  "work-stealing scheduler: throughput vs worker count on the kernel matrices",
		XLabel: "workers",
		YLabel: "expanded nodes per second",
	}
	for _, w := range sweep {
		fig.X = append(fig.X, float64(w))
	}
	report := scalingReport{
		Schema:     "evotree-scaling-bench/v1",
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Baseline:   "centralized-pool scheduler of BENCH_pr2.json (commit cc49190), same harness and matrices",
	}
	for _, n := range sizes {
		// Seed 3 matches the go-test benchmarks in internal/bb and
		// internal/pbb, so rows are comparable across reports.
		m := matrix.Random0100(rand.New(rand.NewSource(3)), n)
		p, err := bb.NewProblem(m, true)
		if err != nil {
			return nil, err
		}
		seqCost := p.SolveSequential(bb.DefaultOptions()).Cost
		for _, w := range sweep {
			var res *pbb.Result
			nsPerOp := timePerOp(reps, func() {
				r, perr := pbb.Solve(m, pbb.DefaultOptions(w))
				if perr != nil {
					err = perr
					return
				}
				res = r
			})
			if err != nil {
				return nil, err
			}
			// The scheduler must not move the optimum at any concurrency.
			if res.Cost != seqCost {
				return nil, fmt.Errorf("scaling: n=%d workers=%d found cost %v, sequential %v",
					n, w, res.Cost, seqCost)
			}
			e := scalingEntry{
				N:              n,
				Workers:        w,
				NsPerOp:        nsPerOp,
				NodesPerOp:     res.Stats.Expanded,
				OptimalCost:    res.Cost,
				Steals:         res.Sched.Steals,
				Parks:          res.Sched.Parks,
				Oversubscribed: w > runtime.GOMAXPROCS(0),
			}
			if nsPerOp > 0 {
				e.NodesPerSec = float64(res.Stats.Expanded) / (nsPerOp / 1e9)
			}
			if base, ok := scalingBaseline[fmt.Sprintf("n=%d/workers=%d", n, w)]; ok {
				e.BaselineNodesPerSec = base
				e.ThroughputSpeedup = e.NodesPerSec / base
				fig.Note("n=%d workers=%d: %.0f nodes/s, %.2fx the centralized-pool scheduler (%.0f)",
					n, w, e.NodesPerSec, e.ThroughputSpeedup, base)
				// The CI bench gate: dropping below the old scheduler's
				// throughput is a regression, not noise.
				if !cfg.Quick && e.ThroughputSpeedup < 1.0 {
					return nil, fmt.Errorf(
						"scaling: n=%d workers=%d throughput %.0f nodes/s regressed below the centralized-pool baseline %.0f",
						n, w, e.NodesPerSec, base)
				}
			}
			fig.AddPoint(fmt.Sprintf("n=%d nodes/s", n), e.NodesPerSec)
			report.Entries = append(report.Entries, e)
		}
	}
	if cfg.BenchOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(cfg.BenchOut, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
		fig.Note("report written to %s", cfg.BenchOut)
	}
	return fig, nil
}
