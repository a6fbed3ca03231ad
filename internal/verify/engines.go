package verify

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"evotree/internal/bb"
	"evotree/internal/compact"
	"evotree/internal/core"
	"evotree/internal/dist"
	"evotree/internal/matrix"
	"evotree/internal/obs"
	"evotree/internal/pbb"
)

// Engine is one way of building a tree from a matrix, wrapped for the
// differential harness.
type Engine struct {
	Name string
	// Exact engines must return the optimal cost; heuristic engines must
	// never beat it and must stay within the configured approximation
	// ratio.
	Exact bool
	// Decomposition engines run the compact-set path; their output
	// additionally gets the compact-sets-appear-as-clades check.
	Decomposition bool
	// Run builds the tree. maxNodes > 0 caps the search (Optimal reports
	// false on truncation). probe, when non-nil, receives the engine's
	// telemetry events — the harness attaches a flight recorder here so a
	// differential failure ships the evidence of the search that produced
	// it.
	Run func(m *matrix.Matrix, maxNodes int64, probe obs.Probe) (EngineResult, error)
}

// engineByName builds the registry lazily so each entry captures its own
// configuration.
func engineByName(name string) (Engine, error) {
	// bestfirsts, wholes and compacts are bestfirst, whole and compact
	// under the strong rule set, like bbprop and pbbs<N>.
	base := bb.DefaultOptions
	switch name {
	case "bestfirsts", "wholes", "compacts":
		base = bb.StrongOptions
	}
	bbOpt := func(maxNodes int64, threeThree bool) bb.Options {
		o := base()
		o.MaxNodes = maxNodes
		o.ThreeThree = threeThree
		return o
	}
	switch name {
	case "bb", "bb33", "bbprop":
		// bbprop is the rule-ablation engine: the sequential DFS with the
		// propagation bound. The bound is exactness-preserving, so the
		// differential harness proves it leaves the optimal cost untouched
		// on every instance of the oracle band.
		tt := name == "bb33"
		return Engine{Name: name, Exact: !tt, Run: func(m *matrix.Matrix, maxNodes int64, probe obs.Probe) (EngineResult, error) {
			opt := bbOpt(maxNodes, tt)
			opt.Propagate = name == "bbprop"
			opt.Probe = probe
			res, err := bb.Solve(m, opt)
			if err != nil {
				return EngineResult{Name: name}, err
			}
			return EngineResult{Name: name, Cost: res.Cost, Tree: res.Tree, Optimal: res.Optimal, Stats: res.Stats}, nil
		}}, nil
	case "bestfirst", "bestfirsts":
		return Engine{Name: name, Exact: true, Run: func(m *matrix.Matrix, maxNodes int64, probe obs.Probe) (EngineResult, error) {
			p, err := bb.NewProblem(m, true)
			if err != nil {
				return EngineResult{Name: name}, err
			}
			opt := bbOpt(maxNodes, false)
			opt.Probe = probe
			res := p.SolveBestFirst(opt)
			return EngineResult{Name: name, Cost: res.Cost, Tree: res.Tree, Optimal: res.Optimal, Stats: res.Stats}, nil
		}}, nil
	case "whole", "wholes":
		// The core pipeline with decomposition disabled — the paper's
		// control condition; exact like the parallel engine it wraps.
		return Engine{Name: name, Exact: true, Run: func(m *matrix.Matrix, maxNodes int64, probe obs.Probe) (EngineResult, error) {
			opt := core.Options{Workers: 4, BB: bbOpt(maxNodes, false), Probe: probe}
			res, err := core.Construct(m, opt)
			if err != nil {
				return EngineResult{Name: name}, err
			}
			return EngineResult{Name: name, Cost: res.Cost, Tree: res.Tree, Optimal: res.Optimal, Stats: res.Stats}, nil
		}}, nil
	case "compact", "compact33", "compacts":
		tt := name == "compact33"
		return Engine{Name: name, Decomposition: true, Run: func(m *matrix.Matrix, maxNodes int64, probe obs.Probe) (EngineResult, error) {
			opt := core.Options{
				UseCompactSets: true,
				Reduction:      compact.Maximum,
				Workers:        4,
				BB:             bbOpt(maxNodes, tt),
				Probe:          probe,
			}
			res, err := core.Construct(m, opt)
			if err != nil {
				return EngineResult{Name: name}, err
			}
			return EngineResult{Name: name, Cost: res.Cost, Tree: res.Tree, Optimal: res.Optimal, Stats: res.Stats}, nil
		}}, nil
	}
	// dist<N> runs the distributed farm with N worker goroutines over a
	// real loopback HTTP transport: an exact engine, so the differential
	// harness proves lease dispatch, bound broadcast, and result folding
	// preserve the optimum. dists<N> is the farm under the strong rule
	// set, like pbbs<N>.
	if w, ok := parseWorkers(name, "dist"); ok {
		return Engine{Name: name, Exact: true, Run: distRun(name, w, bb.DefaultOptions())}, nil
	}
	if w, ok := parseWorkers(name, "dists"); ok {
		return Engine{Name: name, Exact: true, Run: distRun(name, w, bb.StrongOptions())}, nil
	}
	// pbbs<N> is the parallel engine with the strong rule set (the
	// propagation bound), so the differential harness proves the bound
	// composes with work stealing and shared-bound broadcast.
	if w, ok := parseWorkers(name, "pbbs"); ok {
		return Engine{Name: name, Exact: true, Run: func(m *matrix.Matrix, maxNodes int64, probe obs.Probe) (EngineResult, error) {
			opt := pbb.Options{Options: bb.StrongOptions(), Workers: w, InitialFanout: 2}
			opt.MaxNodes = maxNodes
			opt.Probe = probe
			res, err := pbb.Solve(m, opt)
			if err != nil {
				return EngineResult{Name: name}, err
			}
			return EngineResult{Name: name, Cost: res.Cost, Tree: res.Tree, Optimal: res.Optimal, Stats: res.Stats}, nil
		}}, nil
	}
	// pbb<N> runs the parallel engine with N workers, for any N ≥ 1 — the
	// differential harness sweeps the work-stealing scheduler at arbitrary
	// concurrency levels (evocheck -workers).
	if w, ok := parseWorkers(name, "pbb"); ok {
		return Engine{Name: name, Exact: true, Run: func(m *matrix.Matrix, maxNodes int64, probe obs.Probe) (EngineResult, error) {
			opt := pbb.DefaultOptions(w)
			opt.MaxNodes = maxNodes
			opt.Probe = probe
			res, err := pbb.Solve(m, opt)
			if err != nil {
				return EngineResult{Name: name}, err
			}
			return EngineResult{Name: name, Cost: res.Cost, Tree: res.Tree, Optimal: res.Optimal, Stats: res.Stats}, nil
		}}, nil
	}
	return Engine{}, fmt.Errorf("verify: unknown engine %q (want one of %s)", name, strings.Join(EngineNames(), ","))
}

// distRun wraps the distributed farm under the search options bbOpt as
// an engine Run func.
func distRun(name string, workers int, bbOpt bb.Options) func(*matrix.Matrix, int64, obs.Probe) (EngineResult, error) {
	return func(m *matrix.Matrix, maxNodes int64, probe obs.Probe) (EngineResult, error) {
		opt := dist.Options{Workers: workers, BB: bbOpt}
		opt.BB.MaxNodes = maxNodes
		opt.BB.Probe = probe
		res, err := dist.Solve(m, opt)
		if err != nil {
			return EngineResult{Name: name}, err
		}
		return EngineResult{Name: name, Cost: res.Cost, Tree: res.Tree, Optimal: res.Optimal, Stats: res.Stats}, nil
	}
}

// parseWorkers recognizes a "<prefix><N>" engine name (pbb4, dist3,
// dists2, ...) and returns its worker count.
func parseWorkers(name, prefix string) (int, bool) {
	s, ok := strings.CutPrefix(name, prefix)
	if !ok || s == "" {
		return 0, false
	}
	w, err := strconv.Atoi(s)
	if err != nil || w < 1 {
		return 0, false
	}
	return w, true
}

// PBBEngineName returns the engine name for the parallel engine at the
// given worker count.
func PBBEngineName(workers int) string {
	return fmt.Sprintf("pbb%d", workers)
}

// EngineNames lists the standard engine names, sorted. Any "pbb<N>"
// (in-process parallel), "pbbs<N>" (parallel + strong rules), "dist<N>"
// (loopback HTTP farm, exact) or "dists<N>" (farm + strong rules) with
// N ≥ 1 is additionally accepted by ParseEngines for concurrency sweeps.
func EngineNames() []string {
	names := []string{"bb", "bb33", "bbprop", "bestfirst", "bestfirsts",
		"pbb1", "pbb4", "pbb8", "pbbs4", "whole", "wholes", "compact", "compact33", "compacts"}
	sort.Strings(names)
	return names
}

// DefaultEngineSpec is the engine list the harness and CI run: every
// engine, exact and heuristic, including the rule-ablation engine that
// pins the propagation bound to the unruled optimum and each in-process
// engine under the strong rule set.
const DefaultEngineSpec = "bb,bb33,bbprop,bestfirst,bestfirsts,pbb1,pbb4,pbb8,pbbs4,whole,wholes,compact,compact33,compacts"

// ParseEngines resolves a comma-separated engine list ("" means the
// default set).
func ParseEngines(spec string) ([]Engine, error) {
	if spec == "" {
		spec = DefaultEngineSpec
	}
	var engines []Engine
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		e, err := engineByName(name)
		if err != nil {
			return nil, err
		}
		engines = append(engines, e)
	}
	if len(engines) == 0 {
		return nil, fmt.Errorf("verify: empty engine list %q", spec)
	}
	return engines, nil
}
