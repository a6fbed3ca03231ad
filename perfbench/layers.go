package main

import "sort"

// perLayer lists every per-layer metric a traced run prints, with its unit.
// Each is measured from outside the program: by timing calls into a
// layer's exported functions, or from the obs events the layer already
// emits, read through the benchmark's own probe. Which end-to-end metric
// each one should move is written next to it.
var perLayer = []struct{ name, unit string }{
	{"matrix.fingerprint_us", "us"},       // CanonicalFingerprint → latency_p50_ms on service
	{"upgma.upgmm_us", "us"},              // UPGMM, one call per B&B input → solves_per_s on decompose
	{"bb.new_problem_us", "us"},           // NewProblem → decompose and service latency
	{"bb.expand_ns", "ns"},                // Problem.Expand, kernel replay → solves_per_s on exact
	{"bb.children_per_expand", "count"},   // kernel replay → solves_per_s on exact
	{"bb.propagated_lb_ns", "ns"},         // Problem.PropagatedLB, kernel replay → exact-strong
	{"bb.propagate_prune_ratio", "ratio"}, // prunes per PropagatedLB call → exact-strong
	{"bb.expanded", "count"},              // expansions per solve → exact, exact-strong
	{"bb.nodes_per_s", "1/s"},             // expansions per second: pbb solve time on exact*, the sequential baseline elsewhere
	{"bb.prune_ratio", "ratio"},           // discarded over generated nodes → exact, exact-strong
	{"bb.pruned.bound", "count"},          // per solve, PruneStats.ByRule
	{"bb.pruned.incumbent", "count"},      // per solve
	{"bb.pruned.ultrametric", "count"},    // per solve
	{"bb.pruned.dominance", "count"},      // per solve
	{"bb.seq_batch_s", "s"},               // the workload's B&B inputs through bb.Solve once: the 1-thread baseline
	{"bb.kernel_share", "ratio"},          // replay (Expand+PropagatedLB) time × calls over bb.seq_batch_s
	{"bb.propagate_share", "ratio"},       // PropagatedLB time × calls over bb.seq_batch_s → exact-strong
	{"bb.rules_speedup", "ratio"},         // pbb wall rules-off over rules-on, same batch → exact, exact-strong
	{"pbb.master_s", "s"},                 // ProblemStart → first WorkerStart, per solve → latency_p50_ms on exact
	{"pbb.worker_busy_frac", "ratio"},     // worker time not parked over worker phase → exact
	{"pbb.imbalance", "ratio"},            // max over mean WorkerFinish.Nodes → latency_p90_ms on exact
	{"pbb.steals", "count"},               // per solve, SchedStats
	{"pbb.parks", "count"},                // per solve
	{"pbb.donates", "count"},              // per solve
	{"pbb.speedup_vs_seq", "ratio"},       // bb.seq_batch_s over the pbb batch time
	{"compact.detect_s", "s"},             // PhaseEnd compact-detect, per construct → solves_per_s on decompose
	{"compact.reduce_s", "s"},             // PhaseEnd reduce, summed per construct
	{"compact.graft_s", "s"},              // PhaseEnd merge, summed per construct
	{"compact.sets", "count"},             // compact sets per construct
	{"core.subproblems", "count"},         // per construct → decompose
	{"core.max_subproblem", "count"},      // largest reduced matrix in the batch
	{"core.subproblem_solve_s", "s"},      // SubproblemFinish, summed per construct
	{"core.validate_s", "s"},              // PhaseEnd validate, per construct
	{"core.detect_share", "ratio"},        // compact.detect_s over construct wall: the serial share
	{"tree.encode_us", "us"},              // Newick + Ascii per tree → latency_p50_ms on service
	{"web.hit_ratio", "ratio"},            // Server.Stats hits over requests → service
	{"web.hit_latency_p50_ms", "ms"},      // requests answered with Cached=true
	{"web.miss_latency_p50_ms", "ms"},     // requests that were solved
	{"web.latency_p99_ms", "ms"},          // all requests; only service has the samples for a p99
	{"web.solves", "count"},               // Server.Stats solves in the measured window
	{"trace.overhead", "ratio"},           // traced wall over untraced wall, per call
}

// layerValues collects a traced run's per-layer measurements.
type layerValues map[string]float64

// into writes every per-layer metric into the result line. A layer the
// workload never passes through is reported as 0 and named in the context
// line, so a reader can tell "not exercised" from a measured zero.
func (lv layerValues) into(rep *report) {
	var missing []string
	for _, m := range perLayer {
		v, ok := lv[m.name]
		if !ok {
			missing = append(missing, m.name)
		}
		rep.Metrics[m.name] = metric{v, m.unit}
	}
	sort.Strings(missing)
	rep.record["not_exercised"] = missing
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
