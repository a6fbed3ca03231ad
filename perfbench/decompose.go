package main

import (
	"fmt"
	"math/rand"
	"time"

	"evotree/internal/bb"
	"evotree/internal/compact"
	"evotree/internal/core"
	"evotree/internal/matrix"
	"evotree/internal/obs"
	"evotree/internal/seqsim"
)

// decomposeSizes fixes the species counts of the decompose batch, so the
// seed changes the sequences and not how much work a batch holds.
var decomposeSizes = []int{400, 420, 440, 460, 480, 500, 520, 540, 560, 580, 600}

var decomposeQuickSizes = []int{40, 60}

// A decompose input must keep its exact searches small, as in the paper's
// regime of many tiny subproblems: every reduced matrix of more than
// smallGroups groups must solve sequentially within hardGroupNodes
// expansions, or the draw is drawn again. With the cap an input's latency
// follows its size and not its draw: at 20,000 expansions one reduced
// matrix of 30-odd groups now and then added 40 ms of search to a 60 ms
// construct and set the batch's p90 on its own.
const (
	smallGroups    = 17
	hardGroupNodes = 2000
)

// decomposeItem is one mtDNA-like matrix with its setup references.
type decomposeItem struct {
	m    *matrix.Matrix
	ref  float64       // core.Construct cost in setup
	sets []compact.Set // compact.Find in setup
}

type decomposeSession struct {
	items []decomposeItem
	// treeChecks memoizes the tree checks by item and Newick: passes
	// return the same few trees again and again, and Feasible on n=600
	// costs tens of milliseconds.
	treeChecks map[string]error
}

func (s *decomposeSession) close() {}

func setupDecompose(cfg config) (*decomposeSession, error) {
	sizes := decomposeSizes
	if cfg.quick {
		sizes = decomposeQuickSizes
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	s := &decomposeSession{treeChecks: map[string]error{}}
	for _, n := range sizes {
		for {
			ds, err := seqsim.Generate(rng, seqsim.Params{Species: n, SeqLen: 150, Rate: 1.2})
			if err != nil {
				return nil, err
			}
			h, sets, err := compact.BuildHierarchy(ds.Matrix)
			if err != nil {
				return nil, err
			}
			easy, err := searchesStaySmall(ds.Matrix, h)
			if err != nil {
				return nil, err
			}
			if easy {
				s.items = append(s.items, decomposeItem{m: ds.Matrix, sets: sets})
				break
			}
		}
	}
	// The reference solve doubles as the warm-up pass.
	for i := range s.items {
		res, err := s.solve(i, nil)
		if err != nil {
			return nil, err
		}
		s.items[i].ref = res.Cost
		if cfg.skewReference {
			s.items[i].ref *= 1.5
		}
	}
	return s, nil
}

func (s *decomposeSession) solve(i int, probe obs.Probe) (*core.Result, error) {
	opt := core.DefaultOptions(workers)
	opt.Probe = probe
	return core.Construct(s.items[i].m, opt)
}

// searchesStaySmall reports whether every reduced matrix of h with more
// than smallGroups groups solves sequentially within hardGroupNodes
// expansions.
func searchesStaySmall(m *matrix.Matrix, h *compact.Hierarchy) (bool, error) {
	if len(h.Children) > bb.MaxSpecies {
		return false, nil // core.Construct cannot solve it at all
	}
	if len(h.Children) > smallGroups {
		small, _, err := compact.Reduce(m, h, compact.Maximum)
		if err != nil {
			return false, err
		}
		opt := bb.DefaultOptions()
		opt.MaxNodes = hardGroupNodes
		res, err := bb.Solve(small, opt)
		if err != nil || !res.Optimal {
			return false, err
		}
	}
	for _, ch := range h.Children {
		if ok, err := searchesStaySmall(m, ch); err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

func (s *decomposeSession) check(i int, r *core.Result) error {
	it := s.items[i]
	if !r.Optimal {
		return fmt.Errorf("n=%d: a subproblem search stopped early", it.m.Len())
	}
	if err := sameCost("core.Construct", r.Cost, it.ref); err != nil {
		return fmt.Errorf("n=%d: %w", it.m.Len(), err)
	}
	if r.Tree == nil {
		return fmt.Errorf("n=%d: no tree returned", it.m.Len())
	}
	key := fmt.Sprintf("%d %s", i, r.Tree.Newick())
	err, done := s.treeChecks[key]
	if !done {
		err = core.RelationPreserved(r.Tree, it.sets)
		if err == nil {
			err = checkTree(r.Tree, it.m, r.Cost)
		}
		s.treeChecks[key] = err
	}
	return err
}

func measureDecompose(cfg config, rep *report) error {
	s, setupS, err := timedSetup(func() (*decomposeSession, error) { return setupDecompose(cfg) })
	if err != nil {
		return err
	}
	t := &tally{}
	lat, rates, wall := passes(len(s.items), cfg.duration(), func(i int) (*core.Result, error) {
		return s.solve(i, nil)
	}, func(runs []solved[*core.Result]) { checkAll(runs, s.check, t) })
	t.into(rep)
	rep.record["batch"] = map[string]any{"sizes": sizesOf(s.items)}
	return endToEnd(rep, setupS, lat, rates, wall)
}

func sizesOf(items []decomposeItem) []int {
	out := make([]int, len(items))
	for i, it := range items {
		out[i] = it.m.Len()
	}
	return out
}

// pipelineTrace is what a traced run learns from core.Construct calls:
// the stage split from the pipeline's events, and the search and
// decomposition totals from the results.
type pipelineTrace struct {
	ct      coreTrace
	st      searchTally
	sets    int
	subs    int
	maxSub  int
	results int
}

// addResult adds one construct's result. Its subproblem searches overlap,
// so no solve time is charged to them (see searchTally).
func (p *pipelineTrace) addResult(r *core.Result) {
	p.st.add(r.Stats, r.Sched, 0)
	p.results++
	p.sets += len(r.CompactSets)
	p.subs += len(r.Subproblems)
	for _, sp := range r.Subproblems {
		p.maxSub = max(p.maxSub, sp.Size)
	}
}

func (p *pipelineTrace) into(lv layerValues) {
	p.ct.into(lv)
	p.st.into(lv)
	if p.results > 0 {
		lv["compact.sets"] = float64(p.sets) / float64(p.results)
		lv["core.subproblems"] = float64(p.subs) / float64(p.results)
		lv["core.max_subproblem"] = float64(p.maxSub)
	}
}

// tracedConstruct runs one core.Construct call with the benchmark's probe
// attached, turns its events into spans under a core.construct span, and
// adds its result to pt.
func tracedConstruct(m *matrix.Matrix, col *collector, log *spanLog, pt *pipelineTrace) (*core.Result, error) {
	opt := core.DefaultOptions(workers)
	opt.Probe = col
	start := time.Now()
	r, err := core.Construct(m, opt)
	end := time.Now()
	root := log.add(-1, "core.construct", start, end)
	pt.ct.addConstruct(col.take(), log, root, end.Sub(start))
	if err == nil {
		pt.addResult(r)
	}
	return r, err
}

// subproblemMatrices rebuilds, from outside the pipeline, the reduced
// matrices core.Construct hands to the branch-and-bound: one per internal
// node of the compact-set hierarchy, under the Maximum reduction.
func subproblemMatrices(mats []*matrix.Matrix) ([]*matrix.Matrix, error) {
	var out []*matrix.Matrix
	var walk func(m *matrix.Matrix, h *compact.Hierarchy) error
	walk = func(m *matrix.Matrix, h *compact.Hierarchy) error {
		if h.IsLeaf() {
			return nil
		}
		for _, ch := range h.Children {
			if err := walk(m, ch); err != nil {
				return err
			}
		}
		small, _, err := compact.Reduce(m, h, compact.Maximum)
		if err != nil {
			return err
		}
		if small.Len() >= 2 {
			out = append(out, small)
		}
		return nil
	}
	for _, m := range mats {
		h, _, err := compact.BuildHierarchy(m)
		if err != nil {
			return nil, err
		}
		if err := walk(m, h); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// searchLayersOf fills the bb layer metrics for the B&B inputs a
// decomposition produces: the sequential baseline over every reduced
// matrix, whose rate is bb.nodes_per_s here, the kernel replay checked
// against it, and the per-search setup calls.
func searchLayersOf(mats []*matrix.Matrix, lv layerValues, t *tally) (int, error) {
	subs, err := subproblemMatrices(mats)
	if err != nil {
		return 0, err
	}
	opt := bb.DefaultOptions()
	seqTime, seqStats, costs := seqSolveAll(subs, opt, t)
	lv["bb.seq_batch_s"] = seqTime.Seconds()
	lv["bb.nodes_per_s"] = ratio(float64(seqStats.Expanded), seqTime.Seconds())
	kernelLayers(subs, costs, opt, seqTime, seqStats, lv, t)
	searchSetupLayers(subs, lv)
	return len(subs), nil
}

func tracedDecompose(cfg config, rep *report) error {
	s, err := setupDecompose(cfg)
	if err != nil {
		return err
	}
	n := len(s.items)
	lv, t, log := layerValues{}, &tally{}, newSpanLog()
	var pt pipelineTrace
	lv["trace.overhead"] = alternate(n, cfg.duration(), func(i int) (*core.Result, error) {
		return s.solve(i, nil)
	}, func(i int) (*core.Result, error) {
		return tracedConstruct(s.items[i].m, &collector{}, log, &pt)
	}, s.check, t, nil)
	pt.into(lv)

	mats := make([]*matrix.Matrix, n)
	for i, it := range s.items {
		mats[i] = it.m
	}
	subs, err := searchLayersOf(mats, lv, t)
	if err != nil {
		return err
	}
	lv.into(rep)
	t.into(rep)
	rep.record["batch"] = map[string]any{"sizes": sizesOf(s.items), "bb_inputs": subs}
	return log.finish(cfg, rep)
}
