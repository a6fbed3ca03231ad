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
// input alone, so event ids are the same at every worker count.
type readyQueue struct {
	mu     sync.Mutex
	cond   sync.Cond
	ready  []*job                      // ascending by member count, then by descending id
	jobs   map[*compact.Hierarchy]*job // every node handed over
	closed bool                        // detection has returned
	failed bool                        // a node failed: pop hands out no more
}

func newReadyQueue() *readyQueue {
	q := &readyQueue{jobs: map[*compact.Hierarchy]*job{}}
	q.cond.L = &q.mu
	return q
}

// push makes node h ready; it is Detect's ready callback.
func (q *readyQueue) push(h *compact.Hierarchy) {
	q.mu.Lock()
	j := &job{id: len(q.jobs), h: h}
	q.jobs[h] = j
	i, _ := slices.BinarySearchFunc(q.ready, j, func(a, b *job) int {
		return cmp.Or(cmp.Compare(len(a.h.Members), len(b.h.Members)), cmp.Compare(b.id, a.id))
	})
	q.ready = slices.Insert(q.ready, i, j)
	q.mu.Unlock()
	q.cond.Signal()
}

// wait blocks until a node is ready, and reports false instead once
// detection has returned and no node is left, or after a failure.
func (q *readyQueue) wait() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.ready) == 0 && !q.closed && !q.failed {
		q.cond.Wait()
	}
	return len(q.ready) > 0 && !q.failed
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

// close records that detection has returned and wakes every waiter.
func (q *readyQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// fail stops the queue from handing out further nodes.
func (q *readyQueue) fail() {
	q.mu.Lock()
	q.failed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
