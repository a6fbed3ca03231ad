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
	"evotree/internal/obs"
	"evotree/internal/pbb"
	"evotree/internal/verify"
)

// The frontier experiment measures how far the exact search reaches once
// the propagation and dominance rules are on: each instance of a fixed
// n=20–38 set is solved twice on the parallel engine — rules on
// (bb.StrongOptions) and rules off (bb.DefaultOptions) — under the same
// node budget, and the report records expansions, per-rule prune counts,
// scheduler traffic, and the rules-on reduction factor. With
// Config.BenchOut set it writes the report checked in as BENCH_pr10.json;
// outside Quick mode it enforces the PR 10 gates: the n=20 instance must
// solve exactly with at least frontierMinReduction fewer expansions than
// rules-off, at least one n>=20 run must record steals, and the two
// configurations must agree bit-for-bit on the optimum of every instance
// both of them finish.

func init() { register("frontier", runFrontier) }

const (
	// frontierBudget caps both configurations so a pathological instance
	// degrades into a capped row instead of hanging CI. The whole full set
	// finishes around half a million expansions; the budget is an order of
	// magnitude above that.
	frontierBudget = 3_000_000
	// frontierWorkers pins the full-mode worker count so the checked-in
	// report is comparable across machines (Quick mode uses cfg.Workers).
	frontierWorkers = 8
	// frontierMinReduction is the CI gate on the n=20 instance: rules-on
	// must expand at least this factor fewer nodes than rules-off.
	frontierMinReduction = 5.0
)

// frontierInstance is one benchmark matrix of the frontier set. The
// families escalate from the uniform random workload (the hardest per
// species — its exact frontier sits near n=20) to the perturbed
// molecular-clock regime, where the tighter bounds reach n=38; the twins
// variant plants duplicated species so the dominance rule has symmetry to
// break.
type frontierInstance struct {
	n      int
	family string  // "uniform" | "clock" | "clock+twins"
	eps    float64 // clock perturbation magnitude
	twins  int     // duplicated species planted on top of the base
}

// frontierEntry is one (instance, rule configuration) row of the report.
type frontierEntry struct {
	N        int     `json:"n"`
	Family   string  `json:"family"`
	Workers  int     `json:"workers"`
	Rules    string  `json:"rules"` // "strong" (propagate+dominance) or "off"
	Solved   bool    `json:"solved"`
	Cost     float64 `json:"cost"`
	Expanded int64   `json:"expanded"`
	WallMs   float64 `json:"wall_ms"`
	// PrunedByRule breaks the discarded subproblems down by the rule that
	// killed them (obs.Rules vocabulary; zero-count rules included so the
	// schema is stable).
	PrunedByRule   map[string]int64 `json:"pruned_by_rule"`
	Steals         int64            `json:"steals"`
	Parks          int64            `json:"parks"`
	NodeBudget     int64            `json:"node_budget"`
	Oversubscribed bool             `json:"oversubscribed,omitempty"`
	// ReductionVsOff is set on rules-on rows: rules-off expansions over
	// rules-on expansions for the same matrix. When the rules-off run hit
	// the budget the value is a lower bound on the true reduction.
	ReductionVsOff float64 `json:"reduction_vs_off,omitempty"`
}

// frontierReport is the schema of BENCH_pr10.json.
type frontierReport struct {
	Schema    string `json:"schema"` // "evotree-frontier-bench/v1"
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	GoVersion string `json:"goversion"`
	// NumCPU and GoMaxProcs are both recorded: on a quota-limited CI
	// runner NumCPU reports the host's cores while GOMAXPROCS follows the
	// quota, and entries run with more workers than schedulable procs
	// carry Oversubscribed.
	NumCPU     int             `json:"num_cpu"`
	GoMaxProcs int             `json:"gomaxprocs"`
	Entries    []frontierEntry `json:"entries"`
}

// plantTwins returns a copy of m grown by `twins` duplicated species: each
// duplicate's row equals its source row, and the intra-pair distance is
// half the source's row minimum — within the 2·rowmin bound the triangle
// inequality allows for identical rows, and close enough that the pair
// models near-identical sequences.
func plantTwins(rng *rand.Rand, m *matrix.Matrix, twins int) *matrix.Matrix {
	n := m.Len()
	out := matrix.New(n + twins)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out.Set(i, j, m.At(i, j))
		}
	}
	for k := 0; k < twins; k++ {
		src := rng.Intn(n)
		id := n + k
		rowmin := 0.0
		for x := 0; x < id; x++ {
			if x == src {
				continue
			}
			d := out.At(src, x)
			out.Set(id, x, d)
			if rowmin == 0 || d < rowmin {
				rowmin = d
			}
		}
		out.Set(id, src, rowmin/2)
	}
	return out
}

// frontierMatrix materializes one instance; the seed is derived from the
// workload seed and n so every instance is reproducible in isolation.
func frontierMatrix(cfg Config, in frontierInstance) *matrix.Matrix {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(in.n)))
	switch in.family {
	case "uniform":
		return matrix.Random0100(rng, in.n)
	case "clock":
		return matrix.PerturbedUltrametric(rng, in.n, 100, in.eps)
	default: // clock+twins
		base := matrix.PerturbedUltrametric(rng, in.n-in.twins, 100, in.eps)
		return plantTwins(rng, base, in.twins)
	}
}

func runFrontier(cfg Config) (*Figure, error) {
	set := []frontierInstance{
		{n: 20, family: "uniform"},
		{n: 26, family: "clock", eps: 0.8},
		{n: 32, family: "clock+twins", eps: 0.8, twins: 2},
		{n: 38, family: "clock", eps: 0.8},
	}
	workers := frontierWorkers
	if cfg.Quick {
		set = []frontierInstance{
			{n: 10, family: "uniform"},
			{n: 12, family: "clock+twins", eps: 0.8, twins: 2},
		}
		workers = cfg.Workers
		if workers < 1 {
			workers = 1
		}
	}
	fig := &Figure{
		ID:     "frontier",
		Title:  "exact-search frontier: expansions with and without propagation+dominance",
		XLabel: "species",
		YLabel: "expanded nodes",
	}
	report := frontierReport{
		Schema:     "evotree-frontier-bench/v1",
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	solve := func(m *matrix.Matrix, in frontierInstance, strong bool) (*frontierEntry, error) {
		opt := pbb.Options{Options: bb.DefaultOptions(), Workers: workers, InitialFanout: 2}
		rules := "off"
		if strong {
			opt.Options = bb.StrongOptions()
			rules = "strong"
		}
		opt.MaxNodes = frontierBudget
		start := time.Now()
		res, err := pbb.Solve(m, opt)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		if fails := verify.CheckAccounting(res.Stats); len(fails) > 0 {
			return nil, fmt.Errorf("frontier: n=%d rules=%s accounting violated: %v", in.n, rules, fails)
		}
		e := &frontierEntry{
			N:              in.n,
			Family:         in.family,
			Workers:        workers,
			Rules:          rules,
			Solved:         res.Optimal,
			Cost:           res.Cost,
			Expanded:       res.Stats.Expanded,
			WallMs:         float64(wall.Nanoseconds()) / 1e6,
			PrunedByRule:   make(map[string]int64, len(obs.Rules)),
			Steals:         res.Sched.Steals,
			Parks:          res.Sched.Parks,
			NodeBudget:     frontierBudget,
			Oversubscribed: workers > runtime.GOMAXPROCS(0),
		}
		for _, rule := range obs.Rules {
			e.PrunedByRule[rule] = res.Stats.Pruned.ByRule(rule)
		}
		return e, nil
	}
	anySteals := false
	for _, in := range set {
		m := frontierMatrix(cfg, in)
		fig.X = append(fig.X, float64(in.n))
		on, err := solve(m, in, true)
		if err != nil {
			return nil, err
		}
		off, err := solve(m, in, false)
		if err != nil {
			return nil, err
		}
		if on.Expanded > 0 {
			on.ReductionVsOff = float64(off.Expanded) / float64(on.Expanded)
		}
		if on.Solved && off.Solved && on.Cost != off.Cost {
			return nil, fmt.Errorf(
				"frontier: n=%d (%s) rules-on cost %v differs from rules-off %v — a pruning rule cut the optimum",
				in.n, in.family, on.Cost, off.Cost)
		}
		if in.n >= 20 && (on.Steals > 0 || off.Steals > 0) {
			anySteals = true
		}
		if !cfg.Quick && in.n == 20 {
			if !on.Solved {
				return nil, fmt.Errorf("frontier: the n=20 instance no longer solves exactly under the %d-node budget", frontierBudget)
			}
			if on.ReductionVsOff < frontierMinReduction {
				return nil, fmt.Errorf(
					"frontier: n=20 reduction %.1fx below the %.0fx gate (on=%d off=%d expansions) — the rules regressed",
					on.ReductionVsOff, frontierMinReduction, on.Expanded, off.Expanded)
			}
		}
		suffix := ""
		if !off.Solved {
			suffix = " (rules-off hit the budget; reduction is a lower bound)"
		}
		fig.Note("n=%d %s: %.1fx fewer expansions with rules on (%d vs %d), prunes ultra=%d dom=%d, steals on/off %d/%d%s",
			in.n, in.family, on.ReductionVsOff, on.Expanded, off.Expanded,
			on.PrunedByRule[obs.RuleUltrametric], on.PrunedByRule[obs.RuleDominance],
			on.Steals, off.Steals, suffix)
		fig.AddPoint("rules-on nodes", float64(on.Expanded))
		fig.AddPoint("rules-off nodes", float64(off.Expanded))
		report.Entries = append(report.Entries, *on, *off)
	}
	if !cfg.Quick && !anySteals {
		return nil, fmt.Errorf("frontier: no n>=20 run recorded a steal — the searches no longer exercise the work-stealing scheduler")
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
