// Package obs is the observability substrate of the project: typed search
// events emitted by the branch-and-bound engines and the decomposition
// pipeline (Probe), an atomic metrics registry with Prometheus text
// exposition (Registry), a log/slog tracer that turns events into
// structured log lines (Tracer), and net/http middleware (access log,
// per-route request metrics, in-flight gauge).
//
// The package is dependency-free (stdlib only) and designed so that an
// uninstrumented run costs the hot paths exactly one nil-check: engines
// guard every emission with `if probe != nil`.
package obs

import (
	"math"
	"time"
)

// Kind identifies what happened. The zero value is KindUnknown so that an
// accidentally zero-initialized event is recognizable.
type Kind uint8

const (
	KindUnknown Kind = iota

	// ProblemStart marks the beginning of one branch-and-bound search
	// (sequential or parallel). N carries the species count.
	ProblemStart
	// SeedBound reports the initial feasible upper bound, the UPGMM
	// tree's cost. Value carries the bound.
	SeedBound
	// UBImproved reports a strict improvement of the incumbent upper
	// bound. Value is the new bound, Worker the finder (MasterWorker for
	// the sequential engine or the parallel master phase), Nodes the
	// emitting context's expansion count, Elapsed the time since the
	// search started. The parallel engine emits these while holding the
	// incumbent lock, so consecutive UBImproved values are strictly
	// decreasing even under concurrency.
	UBImproved
	// SolutionFound reports a complete topology matching the incumbent
	// cost (Value). UBImproved is emitted instead when the cost is a
	// strict improvement.
	SolutionFound
	// ProblemFinish marks the end of a search. Value is the final cost,
	// Nodes the total expansions, Elapsed the total search time.
	ProblemFinish

	// PoolPut: the master preserved a subproblem in the global pool
	// during dispatch (the paper's "1/p nodes stay in GP").
	PoolPut
	// PoolGet: a worker pulled a subproblem from the global pool — the
	// refill half of the two-level load balancing. Worker is the puller.
	PoolGet
	// PoolDonate: a worker donated its least promising subproblem to the
	// empty global pool. Worker is the donor.
	PoolDonate
	// WorkerStart: a parallel worker began its Step-7 loop. Nodes is the
	// size of its initial local pool.
	WorkerStart
	// WorkerDrain: a worker's local pool ran dry and it is about to
	// block on the global pool.
	WorkerDrain
	// WorkerFinish: a worker's loop ended. Nodes is its expansion count.
	WorkerFinish
	// Steal: a worker stole subproblems from other workers' deques. Batched:
	// Nodes carries the number of steals since the worker's previous flush
	// (workers flush when they park and when they finish), so the steal hot
	// path never calls the probe.
	Steal
	// Park: a worker parked after an empty spin-and-steal round. Nodes is
	// the worker's expansion count at park time.
	Park

	// PhaseStart/PhaseEnd bracket one named stage of the decomposition
	// pipeline (compact-set detection, reduction, merge, validation).
	// PhaseEnd carries the phase duration in Elapsed.
	PhaseStart
	PhaseEnd
	// SubproblemStart/SubproblemFinish bracket one reduced matrix solved
	// during decomposition. Worker carries the node's hand-over id: the
	// order in which compact-set detection handed the node to the pool,
	// which follows Prim's joining order and depends on the input alone
	// (not its index in core.Result.Subproblems, which is post-order).
	// N is the reduced matrix size; SubproblemFinish carries the solve
	// duration in Elapsed and the subtree cost in Value.
	SubproblemStart
	SubproblemFinish

	// Prune reports a batch of discarded search nodes attributed to one
	// pruning rule. Phase carries the rule name (one of the Rule*
	// constants), Nodes the batch size, Worker the emitting context.
	// Batched like Steal: sequential engines flush once per search,
	// parallel workers once per worker, so the prune hot path never calls
	// the probe.
	Prune
	// Dispatch: the distributed coordinator leased a work unit to a
	// worker. Worker carries the worker's numeric id, Nodes the unit id.
	Dispatch
	// Requeue: a lease deadline expired and the coordinator returned the
	// unit to the queue. Worker is the holder whose lease lapsed, Nodes
	// the unit id.
	Requeue
	// StaleResult: the coordinator rejected a result whose lease was no
	// longer current (expired, superseded, or a duplicate). The unit is
	// not double-counted; any solution it carried is still offered to the
	// incumbent. Worker is the sender, Nodes the unit id.
	StaleResult

	// GapSample is a periodic convergence snapshot: Value carries the
	// incumbent upper bound, BestLB the best (estimated) open lower
	// bound, Gap their relative gap, Rate the expansion throughput in
	// nodes/second since the previous sample, Frontier the number of open
	// subproblems, Nodes the total expansions so far. Sequential engines
	// sample inline from the search loop (exact frontier minima); the
	// parallel engine samples from a low-overhead goroutine over
	// per-worker published minima, so BestLB may overestimate the true
	// open minimum there (the gap reads tighter than it is, never the
	// other way for the sequential engines).
	GapSample

	// SearchConfig reports the optional search rules a solve runs under,
	// emitted once right after ProblemStart by every engine root. Phase
	// carries the comma-joined enabled-rule list (e.g.
	// "maxmin,propagate", or "none"), N the species count.
	// Ablation tooling keys recorded runs on it, so a telemetry stream is
	// self-describing about which reductions shaped its prune counters.
	SearchConfig
)

// Prune-rule names carried in Event.Phase by Prune events and used as the
// {rule} label of the evotree_pruned_total metric.
const (
	// RuleBound: children discarded at generation time because their lower
	// bound could not beat the upper bound current at that moment.
	RuleBound = "bound"
	// RuleIncumbent: nodes that entered the pool/frontier/deque while
	// viable and were discarded later because the incumbent improved.
	RuleIncumbent = "incumbent"
	// RuleThreeThree: insertion positions excluded by the third-species
	// 3-3 relation (Step 4 of the parallel algorithm).
	RuleThreeThree = "threethree"
	// RuleConstraint: children dropped by the generalized per-insertion
	// 3-3 feasibility filter (Constraints.ThreeThreeAll).
	RuleConstraint = "constraint"
	// RuleUltrametric: nodes killed at pop time by the incremental
	// ultrametric propagation bound — the three-point-condition floor over
	// the partial tree beat the plain tail bound and crossed the incumbent.
	RuleUltrametric = "ultrametric"
	// RuleBudget: nodes abandoned unexplored when MaxNodes or a context
	// cancellation truncated the search.
	RuleBudget = "budget"
)

// Rules lists every prune-rule name in stable display order.
var Rules = []string{RuleBound, RuleIncumbent, RuleThreeThree, RuleConstraint,
	RuleUltrametric, RuleBudget}

// MasterWorker is the Worker id used by the sequential engine and by the
// parallel engine's master phase; real workers are numbered from 0.
const MasterWorker = -1

var kindNames = [...]string{
	KindUnknown:      "unknown",
	ProblemStart:     "problem_start",
	SeedBound:        "seed_bound",
	UBImproved:       "ub_improved",
	SolutionFound:    "solution_found",
	ProblemFinish:    "problem_finish",
	PoolPut:          "pool_put",
	PoolGet:          "pool_get",
	PoolDonate:       "pool_donate",
	WorkerStart:      "worker_start",
	WorkerDrain:      "worker_drain",
	WorkerFinish:     "worker_finish",
	Steal:            "steal",
	Park:             "park",
	PhaseStart:       "phase_start",
	PhaseEnd:         "phase_end",
	SubproblemStart:  "subproblem_start",
	SubproblemFinish: "subproblem_finish",
	Prune:            "prune",
	Dispatch:         "dispatch",
	Requeue:          "requeue",
	StaleResult:      "stale_result",
	GapSample:        "gap_sample",
	SearchConfig:     "search_config",
}

// String returns the snake_case event name used in logs and metrics.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one typed telemetry datum. Fields are kind-specific; unused
// fields are zero. See the Kind constants for which fields each kind
// carries.
type Event struct {
	Kind    Kind
	Worker  int           // worker id, MasterWorker for sequential/master contexts
	Value   float64       // bound / cost, when meaningful
	Nodes   int64         // nodes expanded by the emitting context; batch size for Prune/Steal
	N       int           // problem or subproblem size (species)
	Phase   string        // phase name for PhaseStart/PhaseEnd; rule name for Prune
	Elapsed time.Duration // since search start; phase/subproblem duration on *End/*Finish
	// Job identifies the service job (solve) the event belongs to, when
	// the emitting search runs on behalf of one — stamped by JobTag, empty
	// for standalone searches. Consumers like evoweb's SSE stream filter
	// on it so a client watches only its own job's telemetry.
	Job string

	// GapSample-only fields (zero elsewhere).
	BestLB   float64 // best open lower bound (+Inf when the frontier is empty)
	Gap      float64 // relative optimality gap, see GapRatio
	Rate     float64 // nodes expanded per second since the previous sample
	Frontier int64   // open subproblems at sample time
}

// GapRatio is the relative optimality gap between the incumbent upper
// bound and the best open lower bound: (ub − lb) / |ub|, clamped to 0 when
// every open node already matches or exceeds the incumbent (the remaining
// frontier will prune, the incumbent is proven optimal) or when no open
// node remains (lb = +Inf). An infinite ub (no incumbent yet) reports 1 —
// a 100% gap — so the value stays finite and JSON-encodable.
func GapRatio(ub, lb float64) float64 {
	switch {
	case math.IsInf(lb, 1) || lb >= ub:
		return 0
	case math.IsInf(ub, 1):
		return 1
	}
	denom := math.Abs(ub)
	if denom < math.SmallestNonzeroFloat64 {
		return 0
	}
	g := (ub - lb) / denom
	if g < 0 {
		return 0
	}
	return g
}

// Probe receives telemetry events. Implementations must be safe for
// concurrent use: the parallel engine emits from every worker goroutine
// (UBImproved additionally under the incumbent lock, which serializes
// bound improvements). A nil Probe means "no telemetry"; emitters check
// for nil rather than calling a no-op, so the uninstrumented cost is one
// branch.
type Probe interface {
	Emit(Event)
}

// ProbeFunc adapts a function to the Probe interface.
type ProbeFunc func(Event)

// Emit calls f.
func (f ProbeFunc) Emit(ev Event) { f(ev) }

// Multi fans one event stream out to several probes. Nil entries are
// dropped; a result with zero live probes is nil, preserving the
// "nil means uninstrumented" fast path.
func Multi(probes ...Probe) Probe {
	live := make(multiProbe, 0, len(probes))
	for _, p := range probes {
		if p != nil {
			live = append(live, p)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

type multiProbe []Probe

func (m multiProbe) Emit(ev Event) {
	for _, p := range m {
		p.Emit(ev)
	}
}

// JobTag wraps p so every event it forwards carries the given job id in
// Event.Job. A nil p or empty job returns p unchanged, preserving the
// nil-probe fast path.
func JobTag(p Probe, job string) Probe {
	if p == nil || job == "" {
		return p
	}
	return jobTagProbe{p: p, job: job}
}

type jobTagProbe struct {
	p   Probe
	job string
}

func (j jobTagProbe) Emit(ev Event) {
	ev.Job = j.job
	j.p.Emit(ev)
}
