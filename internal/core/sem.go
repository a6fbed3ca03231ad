package core

import "sync"

// workerSem is a weighted semaphore measured in search-goroutine units. The
// decomposition pipeline sizes it to Options.Workers and charges detection
// and every solve for the goroutines they actually run: one unit for
// detection or a sequential search, one per pbb worker for a parallel
// one. That caps the machine-wide search concurrency at Options.Workers no
// matter how many subproblems the hierarchy solves at once.
//
// Waiters queue FIFO, and each is granted as soon as at least one unit is
// free (a partial grant of min(available, want)): a solve never deadlocks
// waiting for a full allotment that concurrent solves hold, it just runs
// narrower.
type workerSem struct {
	mu      sync.Mutex
	avail   int
	waiters []chan int // FIFO queue; each receives its grant exactly once
	wants   []int
}

func newWorkerSem(units int) *workerSem {
	if units < 1 {
		units = 1
	}
	return &workerSem{avail: units}
}

// acquireUpTo blocks until at least one unit is free, then takes up to want
// units (minimum one) and returns how many it got. The caller must release
// exactly that many.
func (s *workerSem) acquireUpTo(want int) int {
	if want < 1 {
		want = 1
	}
	s.mu.Lock()
	if s.avail > 0 && len(s.waiters) == 0 {
		grant := want
		if grant > s.avail {
			grant = s.avail
		}
		s.avail -= grant
		s.mu.Unlock()
		return grant
	}
	ch := make(chan int, 1)
	s.waiters = append(s.waiters, ch)
	s.wants = append(s.wants, want)
	s.mu.Unlock()
	return <-ch
}

// take takes up to want free units without waiting and returns how many
// it got, possibly none.
func (s *workerSem) take(want int) int {
	s.mu.Lock()
	grant := max(min(want, s.avail), 0)
	s.avail -= grant
	s.mu.Unlock()
	return grant
}

// release returns n units and hands them to queued waiters in FIFO order.
func (s *workerSem) release(n int) {
	s.mu.Lock()
	s.avail += n
	for len(s.waiters) > 0 && s.avail > 0 {
		grant := s.wants[0]
		if grant > s.avail {
			grant = s.avail
		}
		s.avail -= grant
		ch := s.waiters[0]
		s.waiters = s.waiters[1:]
		s.wants = s.wants[1:]
		ch <- grant
	}
	s.mu.Unlock()
}
