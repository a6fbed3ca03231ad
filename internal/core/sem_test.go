package core

import (
	"runtime"
	"sync"
	"testing"

	"evotree/internal/obs"
)

func TestWorkerSemPartialGrantsAndFIFO(t *testing.T) {
	s := newWorkerSem(4)
	if got := s.acquireUpTo(3); got != 3 {
		t.Fatalf("first acquire got %d, want 3", got)
	}
	// Only one unit left: a request for four must still proceed with one.
	if got := s.acquireUpTo(4); got != 1 {
		t.Fatalf("partial acquire got %d, want 1", got)
	}
	// Nothing left: the next acquire must block until a release.
	done := make(chan int)
	go func() { done <- s.acquireUpTo(2) }()
	select {
	case g := <-done:
		t.Fatalf("acquire on empty semaphore returned %d early", g)
	default:
	}
	s.release(3)
	if got := <-done; got != 2 {
		t.Fatalf("queued acquire got %d, want 2", got)
	}
	s.release(2)
	s.release(1)
	if got := s.acquireUpTo(4); got != 4 {
		t.Fatalf("after full release got %d, want 4", got)
	}
}

// TestWorkerSemTakeNeverWaits pins take, which adds a parallel solve's
// further pbb workers: it returns the free units up to want, and none,
// without blocking, when every unit is held.
func TestWorkerSemTakeNeverWaits(t *testing.T) {
	s := newWorkerSem(3)
	s.acquireUpTo(1)
	if got := s.take(5); got != 2 {
		t.Fatalf("take got %d of 2 free units", got)
	}
	if got := s.take(1); got != 0 {
		t.Fatalf("take on a held semaphore got %d, want 0", got)
	}
	s.release(2)
	if got := s.take(1); got != 1 {
		t.Fatalf("take after a release got %d, want 1", got)
	}
}

func TestWorkerSemNeverOversubscribes(t *testing.T) {
	const units, goroutines = 3, 20
	s := newWorkerSem(units)
	var mu sync.Mutex
	inUse, peak := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := s.acquireUpTo(1 + i%units)
			mu.Lock()
			inUse += g
			if inUse > peak {
				peak = inUse
			}
			mu.Unlock()
			runtime.Gosched()
			mu.Lock()
			inUse -= g
			mu.Unlock()
			s.release(g)
		}(i)
	}
	wg.Wait()
	if peak > units {
		t.Fatalf("peak usage %d exceeds %d units", peak, units)
	}
}

// TestSearchGoroutinesStayWithinWorkerBudget pins the scheduler fix: the
// seed implementation charged the semaphore one unit per subproblem while
// every parallel solve spawned Options.Workers goroutines of its own, so a
// hierarchy with several concurrent subproblems ran up to Workers² search
// goroutines. The probe counts concurrently live pbb workers; the gauge must
// never exceed Options.Workers.
func TestSearchGoroutinesStayWithinWorkerBudget(t *testing.T) {
	var mu sync.Mutex
	live, peak := 0, 0
	probe := obs.ProbeFunc(func(ev obs.Event) {
		mu.Lock()
		defer mu.Unlock()
		switch ev.Kind {
		case obs.WorkerStart:
			live++
			if live > peak {
				peak = live
			}
		case obs.WorkerFinish:
			live--
		}
	})
	// Three blocks give three parallel subproblems, solvable at once.
	const workers = 3
	opt := DefaultOptions(workers)
	opt.Probe = probe
	if _, err := Construct(threeBlocks(50), opt); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if peak == 0 {
		t.Fatal("no parallel search ran")
	}
	if peak > workers {
		t.Fatalf("peak of %d concurrent search workers exceeds the budget of %d", peak, workers)
	}
	if live != 0 {
		t.Fatalf("worker gauge did not return to zero: %d", live)
	}
}
