// The solve path of the web service. Instead of one unbounded goroutine
// tree per request, every construction — synchronous POST /api/tree and
// asynchronous POST /api/jobs alike — flows through one bounded pipeline:
//
//	request ──▶ canonical fingerprint ──▶ result cache ──▶ coalescer ──▶ queue ──▶ worker pool
//
// The cache is keyed by the matrix's permutation-invariant canonical
// fingerprint (see matrix.CanonicalFingerprint) plus the solve options,
// so any relabeling of an already-solved matrix is a hit. Hits are sound because
// the optimal cost is invariant under species permutation (the
// verification suite's metamorphic property) and entries store trees in
// canonical coordinates.
//
// The coalescer deduplicates identical in-flight matrices: N concurrent
// identical requests trigger exactly one search, and the search's context
// is refcounted across its waiters — it is cancelled only when the last
// interested client has disconnected or been cancelled, which is the
// headline fix for the old synchronous path that kept burning CPU to
// MaxNodes after the client hung up.
//
// The queue is bounded: when it is full the request is shed with 429
// (admission control) instead of piling goroutines onto the host. The
// workers are long-lived: a fixed pool consumes the queue, each solve
// bounded by a server-side deadline threaded through bb.Options.Ctx into
// every engine.
package web

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"evotree/internal/matrix"
	"evotree/internal/obs"
)

// errBusy is returned by submit when the solve queue is full; handlers
// translate it into 429 Too Many Requests.
var errBusy = errors.New("solve queue is full, retry later")

// Task states, in order. Published via atomics so job polling never takes
// the solver lock for a status read.
const (
	taskQueued int32 = iota
	taskRunning
	taskDone
)

// task is one admitted solve: a matrix with its canonical order, plus
// options, a refcounted cancellation context shared by every request
// coalesced onto it, and the completion record.
type task struct {
	id   string         // solve id, stamped onto telemetry events (obs.Event.Job)
	key  string         // cache key (fingerprint + spec)
	m    *matrix.Matrix // the submitting request's matrix
	perm []int          // canonical order: the solve runs on m.Relabel(perm)
	spec solveSpec

	ctx    context.Context
	cancel context.CancelFunc
	refs   int // waiters attached; guarded by solver.mu; 0 ⇒ ctx cancelled

	state    atomic.Int32
	done     chan struct{} // closed when entry/err are set
	entry    *solveEntry
	err      error
	enqueued time.Time
}

// cachedTask wraps a cache hit as an already-completed task so handlers
// have a single result shape. Its cancel is a no-op and detach ignores it.
func cachedTask(key string, e *solveEntry) *task {
	t := &task{id: "", key: key, entry: e, done: make(chan struct{})}
	t.state.Store(taskDone)
	close(t.done)
	return t
}

// solver owns the cache, the coalescing table, and the worker pool.
type solver struct {
	queue    chan *task
	deadline time.Duration
	run      func(ctx context.Context, mc *matrix.Matrix, spec solveSpec, solveID string) (*solveEntry, error)

	mu       sync.Mutex
	inflight map[string]*task
	cache    *resultCache
	closed   bool

	nextID atomic.Int64
	active atomic.Int64 // solves currently executing in a worker

	// Counters; registered on the server registry so they surface on
	// /metrics and are readable in tests via Value().
	hits, misses, coalesced, shed, solves *obs.Counter
	queueLen                              *obs.Gauge
}

func newSolver(workers, queueDepth, cacheSize int, deadline time.Duration,
	reg *obs.Registry,
	run func(ctx context.Context, mc *matrix.Matrix, spec solveSpec, solveID string) (*solveEntry, error),
) *solver {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < 1 {
		queueDepth = 1
	}
	if deadline <= 0 {
		deadline = time.Minute
	}
	s := &solver{
		queue:    make(chan *task, queueDepth),
		deadline: deadline,
		run:      run,
		inflight: make(map[string]*task),
		cache:    newResultCache(cacheSize),
		hits:     reg.Counter("evoweb_cache_hits_total", "Requests served from the result cache."),
		misses:   reg.Counter("evoweb_cache_misses_total", "Requests that enqueued a new solve."),
		coalesced: reg.Counter("evoweb_coalesced_total",
			"Requests attached to an identical in-flight solve instead of enqueuing their own."),
		shed:     reg.Counter("evoweb_shed_total", "Requests rejected with 429 because the solve queue was full."),
		solves:   reg.Counter("evoweb_solves_total", "Searches actually executed by the worker pool."),
		queueLen: reg.Gauge("evoweb_queue_len", "Solve tasks waiting in the admission queue."),
	}
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

// submit admits one solve request. The returned task is either already
// complete (cache hit), an in-flight task the caller was coalesced onto,
// or a freshly enqueued one. Every non-error return holds one reference
// the caller MUST release with detach, even after completion. errBusy
// means the queue was full and nothing was admitted.
func (s *solver) submit(key string, m *matrix.Matrix, perm []int, spec solveSpec) (*task, error) {
	s.mu.Lock()
	if e, ok := s.cache.get(key); ok {
		s.mu.Unlock()
		s.hits.Inc()
		return cachedTask(key, e), nil
	}
	if t, ok := s.inflight[key]; ok {
		t.refs++
		s.mu.Unlock()
		s.coalesced.Inc()
		return t, nil
	}
	if s.closed {
		s.mu.Unlock()
		s.shed.Inc()
		return nil, errBusy
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.deadline)
	t := &task{
		id:       fmt.Sprintf("t%d", s.nextID.Add(1)),
		key:      key,
		m:        m,
		perm:     perm,
		spec:     spec,
		ctx:      ctx,
		cancel:   cancel,
		refs:     1,
		done:     make(chan struct{}),
		enqueued: time.Now(),
	}
	select {
	case s.queue <- t:
		s.inflight[key] = t
		s.queueLen.Set(int64(len(s.queue)))
		s.mu.Unlock()
		s.misses.Inc()
		return t, nil
	default:
		s.mu.Unlock()
		cancel()
		s.shed.Inc()
		return nil, errBusy
	}
}

// detach releases one reference on t. When the last waiter detaches from
// an unfinished task its context is cancelled, so a solve every client
// has abandoned stops within one cancellation-gate period instead of
// burning to MaxNodes. Safe (and required) after completion too.
func (s *solver) detach(t *task) {
	if t.cancel == nil { // cache-hit pseudo-task
		return
	}
	s.mu.Lock()
	t.refs--
	last := t.refs == 0
	s.mu.Unlock()
	if last {
		t.cancel()
	}
}

func (s *solver) worker() {
	for t := range s.queue {
		s.runTask(t)
	}
}

func (s *solver) runTask(t *task) {
	s.queueLen.Set(int64(len(s.queue)))
	var e *solveEntry
	var err error
	if t.ctx.Err() != nil {
		// Deadline passed or every waiter left while still queued: don't
		// start a search nobody can receive.
		err = fmt.Errorf("solve abandoned in queue: %w", t.ctx.Err())
	} else {
		t.state.Store(taskRunning)
		s.active.Add(1)
		s.solves.Inc()
		e, err = s.run(t.ctx, t.m.Relabel(t.perm), t.spec, t.id)
		s.active.Add(-1)
	}
	s.mu.Lock()
	t.entry, t.err = e, err
	delete(s.inflight, t.key)
	if err == nil && e != nil && !e.partial {
		// Truncated-by-budget entries (complete=false) are still sound to
		// cache — MaxNodes is a server constant, so a rerun would truncate
		// the same way — but partial (context-cut) ones depend on timing.
		s.cache.put(t.key, e)
	}
	s.mu.Unlock()
	t.state.Store(taskDone)
	close(t.done)
	t.cancel()
}

// close stops admission (submit starts returning errBusy), cancels every
// in-flight task, and lets the workers drain and exit.
func (s *solver) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, t := range s.inflight {
		t.cancel()
	}
	close(s.queue)
	s.mu.Unlock()
}

// SolverStats is a point-in-time snapshot of the solve pipeline, exposed
// for tests and the load harness.
type SolverStats struct {
	Hits      int64 // requests served from the result cache
	Misses    int64 // requests that enqueued a new solve
	Coalesced int64 // requests attached to an identical in-flight solve
	Shed      int64 // requests rejected with 429
	Solves    int64 // searches actually executed
	Active    int64 // solves executing right now
	Queued    int   // tasks waiting in the queue
	Cached    int   // entries currently in the cache
}

// Stats snapshots the solver counters. Zero-valued before Handler is
// first called.
func (s *Server) Stats() SolverStats {
	if s.solver == nil {
		return SolverStats{}
	}
	sv := s.solver
	sv.mu.Lock()
	cached := sv.cache.len()
	sv.mu.Unlock()
	return SolverStats{
		Hits:      int64(sv.hits.Value()),
		Misses:    int64(sv.misses.Value()),
		Coalesced: int64(sv.coalesced.Value()),
		Shed:      int64(sv.shed.Value()),
		Solves:    int64(sv.solves.Value()),
		Active:    sv.active.Load(),
		Queued:    len(sv.queue),
		Cached:    cached,
	}
}
