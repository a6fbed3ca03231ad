// Package cluster is a deterministic discrete-event model of the PC
// cluster the papers evaluated on (one master, N slave computing nodes on
// 100 Mbps Ethernet) and of the UniGrid platform of the project's grid
// report. It replays the exact master/worker branch-and-bound protocol of
// internal/pbb under a virtual clock:
//
//   - expanding one BBT node costs Config.TBranch time units on a slave;
//   - every message (global-upper-bound broadcast, pool transfer) costs
//     Config.Latency plus size·Config.PerByte;
//   - an upper bound found by one node becomes visible to the others only
//     after the broadcast delay, exactly like an MPI broadcast.
//
// Because the simulation is single-threaded and breaks ties by node id, a
// given (matrix, config) always produces the same virtual makespan — so
// the speedup experiments of the companion paper (Figures 1–8) are
// reproducible on any host, independent of how many physical cores this
// machine has. Super-linear speedups arise for the same reason the paper
// gives: a parallel search discovers good upper bounds earlier in virtual
// time, which prunes the remaining nodes' subtrees.
package cluster

import (
	"math"
	"sort"
	"time"

	"evotree/internal/bb"
	"evotree/internal/matrix"
)

// Config describes the simulated machine.
type Config struct {
	Nodes int // slave computing nodes (the papers use 1 and 16)
	// TBranch is the virtual cost of expanding one BBT node. The absolute
	// scale is arbitrary; only ratios to the message costs matter.
	TBranch float64
	// Latency is the per-message delay (UB broadcast, pool transfer).
	Latency float64
	// PerByte is the transfer cost per subproblem species (models message
	// size growing with the partial topology).
	PerByte float64
	// DisableGlobalPool turns off the two-level load balancer: nodes never
	// donate to or pull from the global pool after the initial dispatch.
	// Used by the ablation experiments to measure what the paper's
	// global/local pool design buys.
	DisableGlobalPool bool
	// Speeds optionally gives per-node relative speeds (1.0 = nominal):
	// node i expands a BBT node in TBranch/Speeds[i] time units. Missing
	// or non-positive entries default to 1. Models the heterogeneous
	// hardware of the grid report (the UniGrid nodes were slower than the
	// lab cluster).
	Speeds []float64
	// BB carries the search options (max–min, 3-3, ...). BB.MaxNodes caps
	// the simulated search's expansions, master and slaves together;
	// Result.Capped reports the cut.
	BB bb.Options
}

// initialFanout × Nodes is the master's pre-dispatch frontier size: the
// papers' "2 times of total nodes in the computing environment".
const initialFanout = 2

// ClusterConfig models the papers' Fast-Ethernet PC cluster: messages are
// cheap relative to branching.
func ClusterConfig(nodes int) Config {
	return Config{
		Nodes:   nodes,
		TBranch: 1.0,
		Latency: 0.2,
		PerByte: 0.01,
		BB:      bb.DefaultOptions(),
	}
}

// GridConfig models a wide-area grid (the UniGrid platform of the NCS
// report): the same protocol with two orders of magnitude more latency
// and slightly slower, heterogeneous nodes (the report's grid machines
// were AMD 1.3 GHz against the cluster's 2000+).
func GridConfig(nodes int) Config {
	c := ClusterConfig(nodes)
	c.Latency = 20
	c.PerByte = 0.05
	c.Speeds = make([]float64, nodes)
	for i := range c.Speeds {
		// Alternate between 0.65x and 0.85x of the cluster node speed.
		if i%2 == 0 {
			c.Speeds[i] = 0.65
		} else {
			c.Speeds[i] = 0.85
		}
	}
	return c
}

// Result reports one simulated run.
type Result struct {
	// Cost is the best tree cost found. For uncapped runs it equals the
	// sequential optimum (the model replays an exact search); for capped
	// runs it is only the incumbent at the cut.
	Cost     float64
	Makespan float64 // virtual completion time (master + slowest slave)
	// MasterTime is the virtual time the master spent building and
	// dispatching the initial frontier; slaves start after it.
	MasterTime float64
	// Capped reports that BB.MaxNodes cut the search short; Cost is then
	// the best bound found rather than the proven optimum.
	Capped     bool
	Expanded   int64     // BBT nodes expanded across all slaves (and master)
	Messages   int64     // UB broadcasts + pool transfers
	BytesMoved float64   // weighted message volume
	NodeBusy   []float64 // per-slave busy time (load-balance visibility)
}

// Efficiency returns busy-time utilisation: Σ busy / (Nodes × makespan).
func (r *Result) Efficiency(nodes int) float64 {
	if r.Makespan == 0 || nodes == 0 {
		return 1
	}
	sum := 0.0
	for _, b := range r.NodeBusy {
		sum += b
	}
	return sum / (float64(nodes) * r.Makespan)
}

// ubEvent is a bound improvement that becomes visible at time t.
type ubEvent struct {
	t  float64
	ub float64
}

// simWorker is one slave computing node of the model.
type simWorker struct {
	clock  float64
	busy   float64
	speed  float64     // relative speed; expansion costs TBranch/speed
	local  []*bb.PNode // sorted: best (lowest LB) at the tail
	lastUB float64     // the node's own best-known bound (own finds apply instantly)
}

// Simulate runs the virtual cluster on m and returns the makespan. The
// search itself is exact: the returned Cost always equals the sequential
// optimum.
func Simulate(m *matrix.Matrix, cfg Config) (*Result, error) {
	p, err := bb.NewProblem(m, cfg.BB.UseMaxMin)
	if err != nil {
		return nil, err
	}
	return SimulateProblem(p, cfg), nil
}

// SimulateProblem runs the model on an existing problem instance.
func SimulateProblem(p *bb.Problem, cfg Config) *Result {
	if cfg.Nodes < 1 {
		cfg.Nodes = 1
	}
	if cfg.TBranch <= 0 {
		cfg.TBranch = 1
	}
	res := &Result{NodeBusy: make([]float64, cfg.Nodes)}

	// ---- master phase ----
	// One Step serves the master and every slave: the model is
	// single-threaded, so they share its pool, its statistics and the
	// BB.MaxNodes budget.
	var stats bb.Stats
	st := &bb.Step{P: p, Opt: cfg.BB, Pool: p.NewPool(), Budget: bb.NewBudget(cfg.BB.MaxNodes), Stats: &stats}
	// The model tracks only a best cost, since each slave sees a bound
	// only after its broadcast delay, but it is seeded like every engine.
	// It never offers to the incumbent, so the seed needs no clock.
	var inc bb.Incumbent
	t, cost := p.InitialUpperBound()
	inc.Seed(t, cost, cfg.BB, time.Time{})
	best := inc.Bound()
	frontier, ok := st.Split(p.Root(), initialFanout*cfg.Nodes, best, func(v *bb.PNode) float64 {
		best = math.Min(best, v.Cost)
		return best
	})
	res.Capped = !ok
	masterTime := cfg.TBranch * float64(stats.Expanded)
	res.MasterTime = masterTime

	// ---- dispatch (cyclic, one message per subproblem) ----
	workers := make([]*simWorker, cfg.Nodes)
	for i := range workers {
		speed := 1.0
		if i < len(cfg.Speeds) && cfg.Speeds[i] > 0 {
			speed = cfg.Speeds[i]
		}
		workers[i] = &simWorker{clock: masterTime, speed: speed, lastUB: best}
	}
	var gp []*bb.PNode
	slots := cfg.Nodes + 1
	if cfg.DisableGlobalPool {
		slots = cfg.Nodes // no pool share without load balancing
	}
	for i, v := range frontier {
		slot := i % slots
		cost := cfg.Latency + cfg.PerByte*float64(v.K)
		res.Messages++
		res.BytesMoved += float64(v.K)
		if slot == cfg.Nodes {
			gp = append(gp, v)
			continue
		}
		w := workers[slot]
		w.local = append(w.local, v)
		if t := masterTime + cost; t > w.clock {
			w.clock = t
		}
	}
	for i := range workers {
		sortDescLB(workers[i].local)
	}

	var events []ubEvent // sorted by time

	visibleUB := func(w *simWorker) float64 {
		ub := w.lastUB
		for _, e := range events {
			if e.t <= w.clock && e.ub < ub {
				ub = e.ub
			}
		}
		return ub
	}

	// ---- event loop ----
	for !res.Capped {
		// Choose the earliest-clock worker that can make progress.
		wi := -1
		for i, w := range workers {
			if len(w.local) == 0 && (len(gp) == 0 || cfg.DisableGlobalPool) {
				continue
			}
			if wi == -1 || w.clock < workers[wi].clock {
				wi = i
			}
		}
		if wi == -1 {
			break
		}
		w := workers[wi]
		if len(w.local) == 0 {
			// Pull the most promising pooled subproblem (two messages:
			// request + reply).
			bi := 0
			for i, v := range gp {
				if v.LB < gp[bi].LB {
					bi = i
				}
			}
			v := gp[bi]
			gp[bi] = gp[len(gp)-1]
			gp = gp[:len(gp)-1]
			w.local = append(w.local, v)
			w.clock += 2*cfg.Latency + cfg.PerByte*float64(v.K)
			res.Messages += 2
			res.BytesMoved += float64(v.K)
			continue
		}
		v := w.local[len(w.local)-1]
		w.local = w.local[:len(w.local)-1]
		expanded := stats.Expanded
		children, ok := st.Run(v, visibleUB(w))
		if !ok {
			res.Capped = true
			break
		}
		if stats.Expanded > expanded {
			// Pruning costs no branching time; an expansion does.
			step := cfg.TBranch / w.speed
			w.clock += step
			w.busy += step
		}
		// Children arrive sorted ascending by LB; append in reverse so the
		// most promising child sits at the tail (popped next by the DFS),
		// matching the real engine's stack discipline.
		for i := len(children) - 1; i >= 0; i-- {
			ch := children[i]
			ub := visibleUB(w)
			switch {
			case bb.Prunes(ch.LB, ub, cfg.BB.CollectAll):
				st.Pool.Put(ch)
			case ch.Complete(p):
				if ch.Cost < ub {
					w.lastUB = ch.Cost
					events = append(events, ubEvent{t: w.clock + cfg.Latency, ub: ch.Cost})
					res.Messages += int64(cfg.Nodes - 1)
					best = math.Min(best, ch.Cost)
				}
				st.Pool.Put(ch)
			default:
				w.local = append(w.local, ch)
			}
		}
		// Donate to the empty global pool (asynchronous send).
		if !cfg.DisableGlobalPool && len(gp) == 0 && len(w.local) > 1 {
			d := w.local[0]
			w.local = w.local[1:]
			gp = append(gp, d)
			res.Messages++
			res.BytesMoved += float64(d.K)
		}
	}

	res.Expanded = stats.Expanded
	res.Cost = best
	makespan := masterTime
	for i, w := range workers {
		res.NodeBusy[i] = w.busy
		if w.clock > makespan {
			makespan = w.clock
		}
	}
	res.Makespan = makespan
	return res
}

// Speedup runs the simulation with 1 and with nodes slaves and returns
// makespan(1)/makespan(nodes) along with both results.
func Speedup(m *matrix.Matrix, cfg Config, nodes int) (float64, *Result, *Result, error) {
	one := cfg
	one.Nodes = 1
	seq, err := Simulate(m, one)
	if err != nil {
		return 0, nil, nil, err
	}
	many := cfg
	many.Nodes = nodes
	par, err := Simulate(m, many)
	if err != nil {
		return 0, nil, nil, err
	}
	if par.Makespan == 0 {
		return 1, seq, par, nil
	}
	return seq.Makespan / par.Makespan, seq, par, nil
}

func sortDescLB(nodes []*bb.PNode) {
	sort.SliceStable(nodes, func(i, j int) bool { return nodes[i].LB > nodes[j].LB })
}
