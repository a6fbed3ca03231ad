package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"evotree/internal/bb"
	"evotree/internal/matrix"
	"evotree/internal/obs"
	"evotree/internal/pbb"
	"evotree/internal/tree"
)

// exactShape is the hardness profile of the exact batch. Candidates are
// drawn from the seed and kept by the work a sequential solve under
// bb.DefaultOptions does on them, counted as generated children (which,
// unlike expansions, grows with n as Expand's cost does): in each of
// strata bands of width √2 starting at lo, perClock perturbed-clock and
// perUniform uniform instances. Hardness varies about 500× from one drawn
// instance to the next; fixing the profile makes every seed's batch
// equally hard, puts the latency quantiles on band edges, and keeps any
// one instance under a twentieth of the batch.
type exactShape struct {
	lo                   float64 // generated children
	strata               int
	maxExpanded          int64 // expansion cap of the classifying solve
	perClock, perUniform int
	twins                int // planted-twin instances exact-strong adds
	maxCandidates        int // stop drawing after this many, filled or not
	clockN, uniformN     [2]int
}

func exactShapeFor(quick bool) exactShape {
	if quick {
		return exactShape{lo: 256, strata: 2, maxExpanded: 1000, perClock: 1, perUniform: 1, twins: 1, maxCandidates: 300,
			clockN: [2]int{12, 15}, uniformN: [2]int{9, 10}}
	}
	return exactShape{lo: 8192, strata: 10, maxExpanded: 20000, perClock: 5, perUniform: 3, twins: 2, maxCandidates: 3000,
		clockN: [2]int{26, 38}, uniformN: [2]int{18, 20}}
}

// exactItem is one whole matrix of the exact batch.
type exactItem struct {
	m        *matrix.Matrix
	family   string
	ref      float64 // optimum from sequential bb.Solve in setup
	expanded int64   // sequential expansions under bb.DefaultOptions
}

// twinSeedSalt separates the planted-twin draws from the batch draws, so
// exact-strong's batch is exact's batch plus the twins.
const twinSeedSalt = 0x7a1e5

// exactBatch draws the exact batch from the seed. Two in three candidates
// are perturbed-clock matrices (eps 0.8), one in three uniform 0..100;
// with twins, planted-twin clock matrices are appended so the dominance
// rules have symmetry to break.
func exactBatch(seed int64, quick, twins bool) ([]exactItem, int, error) {
	sh := exactShapeFor(quick)
	// classify solves m sequentially under an expansion cap and returns its
	// band, or -1 when it is easier or harder than the profile.
	classify := func(m *matrix.Matrix, family string) (exactItem, int, error) {
		opt := bb.DefaultOptions()
		opt.MaxNodes = sh.maxExpanded
		res, err := bb.Solve(m, opt)
		if err != nil || !res.Optimal {
			return exactItem{}, -1, err
		}
		g := float64(res.Stats.Generated)
		band := int(math.Floor(math.Log(g/sh.lo) / math.Log(math.Sqrt2)))
		if g < sh.lo || band >= sh.strata {
			return exactItem{}, -1, nil
		}
		return exactItem{m: m, family: family, ref: res.Cost, expanded: res.Stats.Expanded}, band, nil
	}
	between := func(rng *rand.Rand, r [2]int) int { return r[0] + rng.Intn(r[1]-r[0]+1) }

	rng := rand.New(rand.NewSource(seed))
	quota := map[string]int{"clock": sh.perClock, "uniform": sh.perUniform}
	filled := map[string][]int{"clock": make([]int, sh.strata), "uniform": make([]int, sh.strata)}
	open := map[string]int{"clock": sh.strata * sh.perClock, "uniform": sh.strata * sh.perUniform}
	var items []exactItem
	drawn := 0
	for c := 0; c < sh.maxCandidates && open["clock"]+open["uniform"] > 0; {
		// Draw the next `workers` candidates in order, classify them
		// concurrently, then take them in order. Two draws in three are
		// clock matrices, one uniform; a family whose bands were all full
		// before the group is not drawn.
		var group []candidate
		for ; len(group) < workers && c < sh.maxCandidates; c++ {
			family := "clock"
			if c%3 == 2 {
				family = "uniform"
			}
			if open[family] == 0 {
				continue
			}
			if family == "uniform" {
				group = append(group, candidate{family, matrix.Random0100(rng, between(rng, sh.uniformN))})
			} else {
				group = append(group, candidate{family, matrix.PerturbedUltrametric(rng, between(rng, sh.clockN), 100, 0.8)})
			}
		}
		results, err := classifyAll(group, classify)
		if err != nil {
			return nil, 0, err
		}
		drawn += len(group)
		for _, cl := range results {
			f := cl.item.family
			if cl.band < 0 || filled[f][cl.band] == quota[f] {
				continue
			}
			filled[f][cl.band]++
			open[f]--
			items = append(items, cl.item)
		}
	}
	if !twins {
		return items, drawn, nil
	}
	trng := rand.New(rand.NewSource(seed ^ twinSeedSalt))
	for c, added := 0, 0; c < sh.maxCandidates && added < sh.twins; c++ {
		base := matrix.PerturbedUltrametric(trng, between(trng, sh.clockN)-2, 100, 0.8)
		it, band, err := classify(plantTwins(trng, base, 2), "clock+twins")
		drawn++
		if err != nil {
			return nil, 0, err
		}
		if band >= 0 {
			items = append(items, it)
			added++
		}
	}
	return items, drawn, nil
}

// candidate is one drawn matrix awaiting classification.
type candidate struct {
	family string
	m      *matrix.Matrix
}

type classified struct {
	item exactItem
	band int
}

// classifyAll classifies a group of candidates concurrently, one goroutine
// each, and returns the outcomes in the group's order.
func classifyAll(group []candidate, classify func(*matrix.Matrix, string) (exactItem, int, error)) ([]classified, error) {
	out := make([]classified, len(group))
	errs := make([]error, len(group))
	var wg sync.WaitGroup
	for i, cd := range group {
		wg.Add(1)
		go func(i int, cd candidate) {
			defer wg.Done()
			out[i].item, out[i].band, errs[i] = classify(cd.m, cd.family)
		}(i, cd)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// plantTwins returns m grown by `twins` duplicated species: each copy's
// row equals its source's, and the pair sits at half the source's row
// minimum, so the copy is an exact twin at its row minimum — the case the
// dominance rules cut. It is the frontier experiment's construction.
func plantTwins(rng *rand.Rand, m *matrix.Matrix, twins int) *matrix.Matrix {
	n := m.Len()
	out := matrix.New(n + twins)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out.Set(i, j, m.At(i, j))
		}
	}
	for k := 0; k < twins; k++ {
		src, id := rng.Intn(n), n+k
		rowMin := math.Inf(1)
		for x := 0; x < id; x++ {
			if x == src {
				continue
			}
			d := out.At(src, x)
			out.Set(id, x, d)
			rowMin = min(rowMin, d)
		}
		out.Set(id, src, rowMin/2)
	}
	return out
}

// exactSession is a set-up exact or exact-strong workload.
type exactSession struct {
	items []exactItem
	drawn int // candidates classified to fill the batch
	opt   bb.Options
}

func (s *exactSession) close() {}

func setupExact(cfg config, strong bool) (*exactSession, error) {
	items, drawn, err := exactBatch(cfg.seed, cfg.quick, strong)
	if err != nil {
		return nil, err
	}
	s := &exactSession{items: items, drawn: drawn, opt: bb.DefaultOptions()}
	if strong {
		s.opt = bb.StrongOptions()
	}
	if cfg.skewReference {
		for i := range s.items {
			s.items[i].ref *= 1.5
		}
	}
	// Warm-up: one untimed pass, so the measured loop starts with the
	// code paths and the heap already in their steady state.
	for i := range s.items {
		if _, err := s.solve(i, s.opt, nil); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *exactSession) solve(i int, opt bb.Options, probe obs.Probe) (*pbb.Result, error) {
	o := pbb.Options{Options: opt, Workers: workers, InitialFanout: 2}
	o.Probe = probe
	return pbb.Solve(s.items[i].m, o)
}

func (s *exactSession) check(i int, r *pbb.Result) error {
	it := s.items[i]
	if !r.Optimal {
		return fmt.Errorf("%s n=%d: search stopped before proving optimality", it.family, it.m.Len())
	}
	if err := sameCost("pbb.Solve", r.Cost, it.ref); err != nil {
		return fmt.Errorf("%s n=%d: %w", it.family, it.m.Len(), err)
	}
	return checkTree(r.Tree, it.m, r.Cost)
}

// checkTree checks a solver's tree: structurally valid, feasible for its
// matrix (no tree distance below the matrix distance), and costing what
// the solver reported.
func checkTree(t *tree.Tree, m tree.Distances, cost float64) error {
	if t == nil {
		return fmt.Errorf("no tree returned")
	}
	if err := t.Validate(1e-9); err != nil {
		return err
	}
	if !t.Feasible(m, 1e-9) {
		return fmt.Errorf("tree is not feasible for its matrix")
	}
	return sameCost("tree", t.Cost(), cost)
}

func (s *exactSession) describe() map[string]any {
	var expanded int64
	family := map[string]int{}
	for _, it := range s.items {
		expanded += it.expanded
		family[it.family]++
	}
	return map[string]any{"instances": len(s.items), "families": family,
		"seq_expanded": expanded, "candidates": s.drawn}
}

func (s *exactSession) matrices() ([]*matrix.Matrix, []float64) {
	mats := make([]*matrix.Matrix, len(s.items))
	refs := make([]float64, len(s.items))
	for i, it := range s.items {
		mats[i], refs[i] = it.m, it.ref
	}
	return mats, refs
}

func measureExact(cfg config, rep *report, strong bool) error {
	s, setupS, err := timedSetup(func() (*exactSession, error) { return setupExact(cfg, strong) })
	if err != nil {
		return err
	}
	t := &tally{}
	lat, rates, wall := passes(len(s.items), cfg.duration(), func(i int) (*pbb.Result, error) {
		return s.solve(i, s.opt, nil)
	}, func(runs []solved[*pbb.Result]) { checkAll(runs, s.check, t) })
	t.into(rep)
	rep.record["batch"] = s.describe()
	return endToEnd(rep, setupS, lat, rates, wall)
}

// tracedExact measures the per-layer split of an exact workload:
// untraced and traced slices of the measured loop alternate (the traced
// ones read pbb's events through the benchmark's probe), then the batch
// runs once with the rules flipped, once through the sequential engine,
// and once through the kernel replay.
func tracedExact(cfg config, rep *report, strong bool) error {
	s, err := setupExact(cfg, strong)
	if err != nil {
		return err
	}
	n := len(s.items)
	lv, t, log := layerValues{}, &tally{}, newSpanLog()
	var pt pbbTrace
	var st searchTally
	lv["trace.overhead"] = alternate(n, cfg.duration(), func(i int) (*pbb.Result, error) {
		return s.solve(i, s.opt, nil)
	}, func(i int) (*pbb.Result, error) {
		col := &collector{}
		start := time.Now()
		r, err := s.solve(i, s.opt, col)
		root := log.add(-1, "pbb.solve", start, time.Now())
		pt.addSolve(col.take(), log, root)
		return r, err
	}, s.check, t, func(r solved[*pbb.Result]) {
		if r.err == nil {
			st.add(r.out.Stats, r.out.Sched, r.lat)
		}
	})
	pbbPass := st.solveTime.Seconds() / float64(st.solves) * float64(n)

	// Rules on against rules off on this same batch, measured in this
	// process in alternating passes, median pass against median pass: do
	// the strong rules pay for themselves in wall time?
	var on, off []float64
	for k := 0; k < rulePasses; k++ {
		for _, strongRules := range []bool{true, false} {
			opt := bb.DefaultOptions()
			if strongRules {
				opt = bb.StrongOptions()
			}
			_, _, wall := passes(n, 0, func(i int) (*pbb.Result, error) { return s.solve(i, opt, nil) },
				func(runs []solved[*pbb.Result]) { checkAll(runs, s.check, t) })
			if strongRules {
				on = append(on, wall.Seconds())
			} else {
				off = append(off, wall.Seconds())
			}
		}
	}
	lv["bb.rules_speedup"] = ratio(median(off), median(on))

	mats, refs := s.matrices()
	seqTime, seqStats, costs := seqSolveAll(mats, s.opt, t)
	for i, c := range costs {
		t.check(sameCost("sequential bb.Solve", c, refs[i]))
	}
	lv["bb.seq_batch_s"] = seqTime.Seconds()
	lv["pbb.speedup_vs_seq"] = ratio(seqTime.Seconds(), pbbPass)
	samples := kernelLayers(mats, refs, s.opt, seqTime, seqStats, lv, t)
	searchSetupLayers(mats, lv)
	pt.into(lv)
	st.into(lv)

	lv.into(rep)
	t.into(rep)
	rep.record["batch"] = s.describe()
	rep.record["kernel_samples"] = samples
	rep.record["rules_on_pass_s"] = median(on)
	rep.record["rules_off_pass_s"] = median(off)
	return log.finish(cfg, rep)
}

// rulePasses is how many batch passes each side of the rules comparison
// runs.
const rulePasses = 5

// kernelLayers runs the kernel replay and relates it to the sequential
// baseline: the share of single-threaded solve time that Expand and
// PropagatedLB calls, priced at their replayed cost, account for.
func kernelLayers(mats []*matrix.Matrix, refs []float64, opt bb.Options, seqTime time.Duration, seqStats bb.Stats, lv layerValues, t *tally) int {
	var plbCalls int64
	if opt.Propagate {
		// Every pop that survives the incumbent check is priced by
		// PropagatedLB and then either pruned by it or expanded.
		plbCalls = seqStats.Expanded + seqStats.Pruned.Ultrametric
	}
	samples := kernel(mats, refs, opt, seqStats.Expanded+seqStats.Pruned.Ultrametric, lv, t)
	expandNS := lv["bb.expand_ns"] * float64(seqStats.Expanded)
	plbNS := lv["bb.propagated_lb_ns"] * float64(plbCalls)
	lv["bb.kernel_share"] = ratio(expandNS+plbNS, float64(seqTime.Nanoseconds()))
	if opt.Propagate {
		lv["bb.propagate_share"] = ratio(plbNS, float64(seqTime.Nanoseconds()))
	}
	return samples
}
