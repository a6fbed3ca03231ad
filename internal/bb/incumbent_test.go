package bb

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"evotree/internal/matrix"
	"evotree/internal/obs"
)

// tiedMatrix has a unique cherry (a,b): the three topologies that keep it
// tie at the minimum cost, and every other topology costs more.
func tiedMatrix(t *testing.T) *Problem {
	t.Helper()
	m, err := matrix.NewWithNames([]string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			m.Set(i, j, 8)
		}
	}
	m.Set(0, 1, 2)
	p, err := NewProblem(m, false)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// metricProblem draws an integer metric with few tied costs.
func metricProblem(t *testing.T, n int) *Problem {
	t.Helper()
	p, err := NewProblem(matrix.RandomMetric(rand.New(rand.NewSource(5)), n, 1, 40), true)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// topologies enumerates every complete topology of p by ascending cost.
func topologies(t *testing.T, p *Problem) []*PNode {
	t.Helper()
	var out []*PNode
	var rec func(v *PNode)
	rec = func(v *PNode) {
		if v.Complete(p) {
			out = append(out, v)
			return
		}
		for pos := 0; pos < v.Positions(); pos++ {
			c, err := p.Child(v, pos, nil)
			if err != nil {
				t.Fatal(err)
			}
			rec(c)
		}
	}
	rec(p.Root())
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost < out[j].Cost })
	return out
}

// eventLog is a probe that keeps every event. Incumbent emits under its
// lock, so appends never race.
type eventLog []obs.Event

func (l *eventLog) Emit(ev obs.Event) { *l = append(*l, ev) }

// count returns the number of events of kind k.
func (l eventLog) count(k obs.Kind) int {
	n := 0
	for _, ev := range l {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

func TestIncumbentStrictImprovement(t *testing.T) {
	p := metricProblem(t, 5)
	tops := topologies(t, p)
	worst, best := tops[len(tops)-1], tops[0]
	var mid *PNode
	for _, v := range tops {
		if v.Cost > best.Cost && v.Cost < worst.Cost {
			mid = v
			break
		}
	}
	if mid == nil {
		t.Fatal("instance has fewer than three distinct costs")
	}
	var log eventLog
	opt := Options{CollectAll: true, Probe: &log}
	var inc Incumbent
	inc.Seed(worst.Tree(p), worst.Cost, opt, time.Now())
	for i, v := range []*PNode{mid, best} {
		if !inc.Offer(p, v, 3, 42) {
			t.Fatalf("offer %d at %v below the bound did not improve it", i, v.Cost)
		}
		var res Result
		inc.Result(&res)
		switch {
		case inc.Bound() != v.Cost || res.Cost != v.Cost:
			t.Fatalf("offer %d: bound %v, result cost %v, want %v", i, inc.Bound(), res.Cost, v.Cost)
		case inc.Epoch() != uint64(i+1):
			t.Fatalf("offer %d: epoch %d, want %d", i, inc.Epoch(), i+1)
		case res.Stats.UBUpdates != int64(i+1) || res.Stats.Solutions != 1:
			t.Fatalf("offer %d: UBUpdates=%d Solutions=%d, want %d and 1",
				i, res.Stats.UBUpdates, res.Stats.Solutions, i+1)
		case len(res.Trees) != 1 || res.Trees[0] != res.Tree:
			t.Fatalf("offer %d: CollectAll list %v not reset to the new tree", i, res.Trees)
		case res.Tree.Cost() != v.Cost:
			t.Fatalf("offer %d: tree costs %v, want %v", i, res.Tree.Cost(), v.Cost)
		}
		ev := log[len(log)-1]
		if len(log) != i+1 || ev.Kind != obs.UBImproved || ev.Value != v.Cost ||
			ev.Worker != 3 || ev.Nodes != 42 {
			t.Fatalf("offer %d: events %+v, want one UBImproved at %v", i, log, v.Cost)
		}
	}
}

func TestIncumbentTie(t *testing.T) {
	p := tiedMatrix(t)
	tops := topologies(t, p)
	if tops[2].Cost != tops[0].Cost || tops[3].Cost == tops[0].Cost {
		t.Fatal("instance no longer has exactly three tied optima")
	}
	min := tops[0].Cost

	// An InitialUB seed at the optimum: no tree attains the bound, so the
	// first tie becomes the tree.
	var log eventLog
	var inc Incumbent
	inc.Seed(tops[len(tops)-1].Tree(p), tops[len(tops)-1].Cost,
		Options{InitialUB: min, CollectAll: true, Probe: &log}, time.Now())
	for i := 0; i < 3; i++ {
		if inc.Offer(p, tops[i], 0, 0) {
			t.Fatalf("tie %d reported an improvement", i)
		}
		var res Result
		inc.Result(&res)
		switch {
		case res.Stats.Solutions != int64(i+1) || res.Stats.UBUpdates != 0:
			t.Fatalf("tie %d: Solutions=%d UBUpdates=%d, want %d and 0",
				i, res.Stats.Solutions, res.Stats.UBUpdates, i+1)
		case len(res.Trees) != i+1:
			t.Fatalf("tie %d: %d trees collected, want %d", i, len(res.Trees), i+1)
		case res.Tree != res.Trees[0] || res.Cost != min:
			t.Fatalf("tie %d: tree %v at %v, want the first tie at %v", i, res.Tree, res.Cost, min)
		case inc.Epoch() != 0 || inc.Bound() != min:
			t.Fatalf("tie %d moved the bound: epoch %d, bound %v", i, inc.Epoch(), inc.Bound())
		}
	}
	if len(log) != 3 || log.count(obs.SolutionFound) != 3 {
		t.Fatalf("events %+v, want three SolutionFound", log)
	}

	// A seed tree at the optimum heads the list; the search finding its
	// topology again is counted but not collected twice.
	var seeded Incumbent
	seeded.Seed(tops[1].Tree(p), min, Options{CollectAll: true}, time.Now())
	for i := 0; i < 3; i++ {
		seeded.Offer(p, tops[i], 0, 0)
	}
	var res Result
	seeded.Result(&res)
	if res.Stats.Solutions != 3 || len(res.Trees) != 3 {
		t.Fatalf("seeded at an optimum: Solutions=%d with %d trees, want 3 and 3",
			res.Stats.Solutions, len(res.Trees))
	}
}

func TestIncumbentOfferAboveBound(t *testing.T) {
	p := tiedMatrix(t)
	tops := topologies(t, p)
	var log eventLog
	var inc Incumbent
	inc.Seed(tops[0].Tree(p), tops[0].Cost, Options{CollectAll: true, Probe: &log}, time.Now())
	var before Result
	inc.Result(&before)
	if inc.Offer(p, tops[len(tops)-1], 0, 0) {
		t.Fatal("an offer above the bound improved it")
	}
	var after Result
	inc.Result(&after)
	if after.Tree != before.Tree || after.Cost != before.Cost || len(after.Trees) != 1 ||
		after.Stats != before.Stats || inc.Epoch() != 0 || len(log) != 0 {
		t.Fatalf("an offer above the bound changed the incumbent: %+v, then %+v, events %v",
			before, after, log)
	}
}

func TestIncumbentResultFallback(t *testing.T) {
	p := tiedMatrix(t)
	tops := topologies(t, p)
	upgmm, cost := p.InitialUpperBound()

	// Nothing beats an InitialUB below every topology: the UPGMM tree
	// comes back at its own cost.
	var under Incumbent
	under.Seed(upgmm, cost, Options{InitialUB: tops[0].Cost / 2}, time.Now())
	if under.Offer(p, tops[0], 0, 0) {
		t.Fatal("an offer above the InitialUB improved it")
	}
	var res Result
	under.Result(&res)
	if res.Tree != upgmm || res.Cost != cost {
		t.Fatalf("InitialUB undercut: tree %v at %v, want the UPGMM tree at %v", res.Tree, res.Cost, cost)
	}

	var none Incumbent
	none.Seed(upgmm, cost, Options{NoInitialUB: true}, time.Now())
	res = Result{}
	none.Result(&res)
	if res.Tree != nil || !math.IsInf(res.Cost, 1) || res.Stats.Solutions != 0 {
		t.Fatalf("NoInitialUB without a solution: tree %v at %v, Solutions=%d; want nil at +Inf, 0",
			res.Tree, res.Cost, res.Stats.Solutions)
	}
}

func TestIncumbentConcurrentOffers(t *testing.T) {
	p := metricProblem(t, 6)
	tops := topologies(t, p)
	var log eventLog
	var inc Incumbent
	inc.Seed(nil, 0, Options{NoInitialUB: true, Probe: &log}, time.Now())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		order := rand.New(rand.NewSource(int64(w))).Perm(len(tops))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range order {
				inc.Offer(p, tops[i], w, 0)
			}
		}()
	}
	wg.Wait()
	var res Result
	inc.Result(&res)
	if inc.Bound() != tops[0].Cost || res.Cost != tops[0].Cost {
		t.Fatalf("bound %v, result cost %v, want the minimum %v", inc.Bound(), res.Cost, tops[0].Cost)
	}
	improved := log.count(obs.UBImproved)
	if inc.Epoch() != uint64(improved) || res.Stats.UBUpdates != int64(improved) {
		t.Fatalf("epoch %d, UBUpdates %d, %d UBImproved events", inc.Epoch(), res.Stats.UBUpdates, improved)
	}
	last := math.Inf(1)
	for _, ev := range log {
		if ev.Kind != obs.UBImproved {
			continue
		}
		if ev.Value >= last {
			t.Fatalf("UBImproved values not strictly decreasing: %v after %v", ev.Value, last)
		}
		last = ev.Value
	}
}
