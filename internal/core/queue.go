package core

import (
	"cmp"
	"slices"
	"sync"

	"evotree/internal/compact"
)

// job is one internal hierarchy node on its way through the pool: its
// event id, the node, and what reducing and solving it left.
type job struct {
	id int
	h  *compact.Hierarchy
	solved
}

// readyQueue hands the nodes detection confirms to the pool, the largest
// (by member count) first and, among equals, the earliest. Ids count the
// nodes in the order detection hands them over, which depends on the
// input alone, so event ids are the same at every worker count. An idle
// pool goroutine parks on the queue; a push, or a nudge from detection
// that it has steps for the walk, wakes one, and the end of detection
// wakes them all.
type readyQueue struct {
	mu     sync.Mutex
	ready  []*job                      // ascending by member count, then by descending id
	jobs   map[*compact.Hierarchy]*job // every node handed over
	failed bool                        // a node failed: pop hands out no more
	// wake holds one token per parked goroutine to be woken; a full
	// channel drops the send, so a wake never blocks.
	wake chan struct{}
	done chan struct{} // closed once detection has returned
}

// newReadyQueue returns an empty queue for a pool of the given number of
// goroutines.
func newReadyQueue(pool int) *readyQueue {
	return &readyQueue{jobs: map[*compact.Hierarchy]*job{},
		wake: make(chan struct{}, pool), done: make(chan struct{})}
}

// push makes node h ready; it is detection's ready callback.
func (q *readyQueue) push(h *compact.Hierarchy) {
	q.mu.Lock()
	j := &job{id: len(q.jobs), h: h}
	q.jobs[h] = j
	i, _ := slices.BinarySearchFunc(q.ready, j, func(a, b *job) int {
		return cmp.Or(cmp.Compare(len(a.h.Members), len(b.h.Members)), cmp.Compare(b.id, a.id))
	})
	q.ready = slices.Insert(q.ready, i, j)
	q.mu.Unlock()
	q.nudge()
}

// nudge wakes one parked goroutine, if none is due to wake already,
// without blocking.
func (q *readyQueue) nudge() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// park blocks until a nudge, and reports false instead once detection
// has returned.
func (q *readyQueue) park() bool {
	select {
	case <-q.done:
		return false
	default:
	}
	select {
	case <-q.wake:
		return true
	case <-q.done:
		return false
	}
}

// pop returns the largest ready node, or nil when none is ready or after
// a failure.
func (q *readyQueue) pop() *job {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.ready) == 0 || q.failed {
		return nil
	}
	j := q.ready[len(q.ready)-1]
	q.ready = q.ready[:len(q.ready)-1]
	return j
}

// close records that detection has returned and wakes every parked
// goroutine.
func (q *readyQueue) close() { close(q.done) }

// fail stops the queue from handing out further nodes.
func (q *readyQueue) fail() {
	q.mu.Lock()
	q.failed = true
	q.mu.Unlock()
}
