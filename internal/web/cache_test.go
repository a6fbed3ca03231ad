package web

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"evotree/internal/matrix"
	"evotree/internal/obs"
	"evotree/internal/tree"
)

// TestCacheHitAcrossPermutation: a relabeled, row/column-permuted copy of
// an already-solved matrix is served from the cache — same cost, the new
// request's names — without entering the solver.
func TestCacheHitAcrossPermutation(t *testing.T) {
	s := NewServer()
	h := s.Handler()
	defer s.Close()

	_, first := postJSON(t, h, `{"matrix":`+jsonString(sampleMatrix)+`,"algorithm":"bb"}`)
	if first == nil {
		t.Fatal("first build failed")
	}
	if first.Cached {
		t.Fatal("first request cannot be a cache hit")
	}

	// Same metric, species permuted (d c b a order) and renamed.
	permuted := `4
w 0 4 8 8
x 4 0 8 8
y 8 8 0 2
z 8 8 2 0
`
	_, second := postJSON(t, h, `{"matrix":`+jsonString(permuted)+`,"algorithm":"bb"}`)
	if second == nil {
		t.Fatal("second build failed")
	}
	if !second.Cached {
		t.Fatalf("permuted matrix missed the cache: %+v", s.Stats())
	}
	if second.Cost != first.Cost {
		t.Fatalf("cached cost %v != original %v", second.Cost, first.Cost)
	}
	for _, name := range []string{"w", "x", "y", "z"} {
		if !strings.Contains(second.Newick, name+":") {
			t.Fatalf("cached response misnamed: %s", second.Newick)
		}
	}
	for _, name := range []string{"a", "b", "c", "d"} {
		if strings.Contains(second.Newick, name+":") {
			t.Fatalf("cached response leaked the original request's names: %s", second.Newick)
		}
	}
	st := s.Stats()
	if st.Solves != 1 || st.Hits != 1 {
		t.Fatalf("want 1 solve + 1 hit, got %+v", st)
	}
}

// TestServedTreeFitsRequest: a solve runs on the canonical relabeling of
// the submitting request's matrix, and every response names the species
// in canonical order, so the tree served for the miss and for a permuted
// copy served from the cache both fit their own request's matrix, name by
// name.
func TestServedTreeFitsRequest(t *testing.T) {
	s := NewServer()
	h := s.Handler()
	defer s.Close()

	rng := rand.New(rand.NewSource(5))
	m := matrix.Random0100(rng, 8)
	for i, req := range []*matrix.Matrix{m, m.Relabel(rng.Perm(8))} {
		_, resp := postJSON(t, h, `{"matrix":`+jsonString(req.String())+`,"algorithm":"bb"}`)
		if resp == nil {
			t.Fatalf("request %d failed", i)
		}
		if resp.Cached != (i == 1) {
			t.Fatalf("request %d: cached = %v", i, resp.Cached)
		}
		tr, err := tree.ParseNewick(resp.Newick, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		index := map[string]int{}
		for k, name := range req.Names() {
			index[name] = k
		}
		order := make([]int, req.Len())
		for k := range order {
			order[k] = index[tr.SpeciesName(k)]
		}
		if !tr.Feasible(req.Relabel(order), 1e-6) {
			t.Fatalf("request %d: tree %s does not fit the matrix sent", i, resp.Newick)
		}
	}
}

// TestCacheKeyedBySpec: equal matrices with different solve options must
// not share results.
func TestCacheKeyedBySpec(t *testing.T) {
	s := NewServer()
	h := s.Handler()
	defer s.Close()
	for i, body := range []string{
		`{"matrix":` + jsonString(sampleMatrix) + `,"algorithm":"bb"}`,
		`{"matrix":` + jsonString(sampleMatrix) + `,"algorithm":"upgma"}`,
		`{"matrix":` + jsonString(sampleMatrix) + `,"algorithm":"bb","threeThree":true}`,
	} {
		if _, resp := postJSON(t, h, body); resp == nil {
			t.Fatalf("request %d failed", i)
		} else if resp.Cached {
			t.Fatalf("request %d wrongly served from cache", i)
		}
	}
	if st := s.Stats(); st.Solves != 3 || st.Hits != 0 {
		t.Fatalf("want 3 distinct solves, got %+v", st)
	}
}

// TestCoalescingSingleSolve drives the solver directly with a gated run
// function: N identical concurrent submissions while the solve is blocked
// must coalesce onto exactly one execution, and every waiter must receive
// the same entry.
func TestCoalescingSingleSolve(t *testing.T) {
	const waiters = 16
	gate := make(chan struct{})
	var mu sync.Mutex
	runs := 0
	sv := newSolver(2, 8, 8, time.Minute, obs.NewRegistry(),
		func(ctx context.Context, _ *matrix.Matrix, _ solveSpec, _ string) (*solveEntry, error) {
			mu.Lock()
			runs++
			mu.Unlock()
			<-gate
			return &solveEntry{algorithm: "bb", complete: true, cost: 42}, nil
		})
	defer sv.close()

	m := matrix.Random0100(rand.New(rand.NewSource(1)), 4)
	perm := []int{0, 1, 2, 3} // the stub run ignores the matrix; any order does
	var wg sync.WaitGroup
	entries := make([]*solveEntry, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tk, err := sv.submit("k", m, perm, solveSpec{algorithm: "bb"})
			if err != nil {
				t.Errorf("waiter %d shed: %v", i, err)
				return
			}
			defer sv.detach(tk)
			<-tk.done
			entries[i] = tk.entry
		}(i)
	}
	// Let all waiters attach before releasing the solve. The first submit
	// enqueues; the rest coalesce (no new queue slots are consumed).
	deadline := time.Now().Add(5 * time.Second)
	for {
		sv.mu.Lock()
		attached := len(sv.inflight) == 1 && sv.inflight["k"] != nil && sv.inflight["k"].refs == waiters
		sv.mu.Unlock()
		if attached {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiters never all coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if runs != 1 {
		t.Fatalf("ran %d solves for %d identical requests, want 1", runs, waiters)
	}
	for i, e := range entries {
		if e == nil || e.cost != 42 {
			t.Fatalf("waiter %d got %+v", i, e)
		}
	}
	if got := int64(sv.coalesced.Value()); got != waiters-1 {
		t.Fatalf("coalesced counter = %d, want %d", got, waiters-1)
	}
}

// TestAdmissionControlSheds: with one worker and a depth-1 queue, a burst
// of distinct requests is shed with errBusy once the pipeline is full,
// and admitted work still completes after the burst.
func TestAdmissionControlSheds(t *testing.T) {
	gate := make(chan struct{})
	sv := newSolver(1, 1, 8, time.Minute, obs.NewRegistry(),
		func(ctx context.Context, _ *matrix.Matrix, _ solveSpec, _ string) (*solveEntry, error) {
			<-gate
			return &solveEntry{algorithm: "bb", complete: true}, nil
		})
	defer sv.close()

	m := matrix.Random0100(rand.New(rand.NewSource(2)), 4)
	perm := []int{0, 1, 2, 3} // the stub run ignores the matrix; any order does
	var admitted []*task
	shed := 0
	// Keep submitting distinct keys until one is shed: the worker holds
	// one task at the gate, the queue holds one, everything past that
	// must bounce.
	for i := 0; i < 10; i++ {
		tk, err := sv.submit(fmt.Sprintf("k%d", i), m, perm, solveSpec{algorithm: "bb"})
		if err != nil {
			shed++
			continue
		}
		admitted = append(admitted, tk)
	}
	if shed == 0 {
		t.Fatalf("no request shed with a full depth-1 queue (%d admitted)", len(admitted))
	}
	if got := int64(sv.shed.Value()); got != int64(shed) {
		t.Fatalf("shed counter = %d, want %d", got, shed)
	}
	close(gate)
	for _, tk := range admitted {
		select {
		case <-tk.done:
		case <-time.After(5 * time.Second):
			t.Fatal("admitted task never completed")
		}
		if tk.err != nil {
			t.Fatalf("admitted task failed: %v", tk.err)
		}
		sv.detach(tk)
	}
}

// TestAbandonedInQueueNeverRuns: a task whose every waiter detaches while
// it is still queued must be skipped by the worker, not solved.
func TestAbandonedInQueueNeverRuns(t *testing.T) {
	gate := make(chan struct{})
	var mu sync.Mutex
	ran := map[string]bool{}
	sv := newSolver(1, 4, 8, time.Minute, obs.NewRegistry(),
		func(ctx context.Context, _ *matrix.Matrix, _ solveSpec, id string) (*solveEntry, error) {
			mu.Lock()
			ran[id] = true
			mu.Unlock()
			<-gate
			return &solveEntry{algorithm: "bb", complete: true}, nil
		})
	defer sv.close()

	m := matrix.Random0100(rand.New(rand.NewSource(3)), 4)
	perm := []int{0, 1, 2, 3} // the stub run ignores the matrix; any order does
	blocker, err := sv.submit("blocker", m, perm, solveSpec{algorithm: "bb"})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick it up so the next submit stays queued.
	deadline := time.Now().Add(5 * time.Second)
	for blocker.state.Load() != taskRunning {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := sv.submit("queued", m, perm, solveSpec{algorithm: "bb"})
	if err != nil {
		t.Fatal(err)
	}
	sv.detach(queued) // last waiter abandons while still in the queue
	close(gate)
	<-queued.done
	sv.detach(blocker)

	if queued.err == nil {
		t.Fatal("abandoned task completed without error")
	}
	mu.Lock()
	defer mu.Unlock()
	if ran[queued.id] {
		t.Fatal("abandoned task was solved anyway")
	}
}

// TestCacheLRUEviction exercises the resultCache bound directly.
func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	c.put("a", &solveEntry{cost: 1})
	c.put("b", &solveEntry{cost: 2})
	if _, ok := c.get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.put("c", &solveEntry{cost: 3})
	if _, ok := c.get("b"); ok {
		t.Fatal("LRU entry b not evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("recently used entry a evicted")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}
