package pbb

import (
	"sync/atomic"

	"evotree/internal/bb"
)

// deque is a Chase–Lev work-stealing deque of BBT nodes, the per-worker
// replacement for the seed scheduler's mutex-guarded local pools.
//
// The owning worker pushes and pops at the bottom (LIFO, so the DFS stays
// cache-hot and memory-bounded exactly like the sequential engine), while
// idle workers steal single nodes from the top. Because the worker pushes
// children worst-LB-first, the top of the deque always holds the oldest —
// shallowest, highest-lower-bound — node it owns: a thief therefore takes
// the victim's least promising subproblem, which preserves the paper's
// "donate the worst node" load-balancing discipline without any lock.
//
// All cross-thread communication goes through atomics: push/pop are owner
// only and wait-free, steal is lock-free (one CAS). Indices grow
// monotonically (no ABA); the ring doubles on overflow, so the steady
// state allocates nothing.
type deque struct {
	top    atomic.Int64 // next index to steal (oldest live entry)
	bottom atomic.Int64 // next index to push (one past the newest entry)
	ring   atomic.Pointer[dequeRing]
	// maxCap bounds the ring's growth: push reports overflow instead of
	// doubling past it, and the scheduler spills the worst nodes into the
	// global overflow ring. 0 means dequeMaxCap.
	maxCap int64

	// Pad the hot indices of adjacent workers' deques onto different cache
	// lines; top/bottom are contended between the owner and every thief.
	_ [104]byte
}

const (
	// dequeInitialCap is the ring size a deque starts with. A DFS frontier
	// holds at most ~2K children per level of the species permutation, so
	// 64 covers typical instances; larger searches grow the ring once or
	// twice and then reuse it for the rest of the solve. Kept small because
	// every Solve call initializes one ring per worker.
	dequeInitialCap = 64
	// dequeMaxCap is the default growth bound; far beyond what a DFS over
	// MaxSpecies species can hold, it exists so a logic error cannot
	// allocate without bound. Tests override deque.maxCap to exercise the
	// overflow-donation path.
	dequeMaxCap = 1 << 20
)

// dequeRing is one power-of-two circular buffer. Slots are atomic because
// a thief may read a slot concurrently with the owner re-publishing the
// ring during growth; values at live indices are immutable until stolen or
// popped, so a data race on the *content* is impossible.
type dequeRing struct {
	mask int64
	slot []atomic.Pointer[bb.PNode]
}

func newDequeRing(capPow2 int64) *dequeRing {
	return &dequeRing{mask: capPow2 - 1, slot: make([]atomic.Pointer[bb.PNode], capPow2)}
}

func (r *dequeRing) get(i int64) *bb.PNode    { return r.slot[i&r.mask].Load() }
func (r *dequeRing) put(i int64, v *bb.PNode) { r.slot[i&r.mask].Store(v) }

func (d *deque) init() {
	d.ring.Store(newDequeRing(dequeInitialCap))
	if d.maxCap == 0 {
		d.maxCap = dequeMaxCap
	}
}

// size returns how many nodes the deque currently holds. It is exact for
// the owner and a consistent snapshot for everyone else (top and bottom
// only move forward, so the result never exceeds the true live count by
// more than concurrent steals).
func (d *deque) size() int64 {
	b := d.bottom.Load()
	t := d.top.Load()
	if b < t {
		return 0
	}
	return b - t
}

// push appends v at the bottom. Owner only. It reports false when the ring
// is at maxCap and completely full; the caller must then spill work
// elsewhere before retrying.
func (d *deque) push(v *bb.PNode) bool {
	b := d.bottom.Load()
	t := d.top.Load()
	r := d.ring.Load()
	if b-t > r.mask {
		if 2*(r.mask+1) > d.maxCap {
			return false
		}
		r = d.grow(r, b, t)
	}
	r.put(b, v)
	d.bottom.Store(b + 1)
	return true
}

// grow doubles the ring, copying the live window [t, b). Thieves racing
// with the copy still read the old ring, whose live entries stay intact —
// the classic Chase–Lev growth argument.
func (d *deque) grow(old *dequeRing, b, t int64) *dequeRing {
	r := newDequeRing(2 * (old.mask + 1))
	for i := t; i < b; i++ {
		r.put(i, old.get(i))
	}
	d.ring.Store(r)
	return r
}

// pop removes and returns the newest node, or nil when the deque is empty.
// Owner only. On the last element it races thieves with a CAS on top; the
// loser walks away empty-handed.
func (d *deque) pop() *bb.PNode {
	b := d.bottom.Load() - 1
	r := d.ring.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Already empty: undo the reservation.
		d.bottom.Store(b + 1)
		return nil
	}
	v := r.get(b)
	if t == b {
		// Last element: win it against concurrent thieves.
		if !d.top.CompareAndSwap(t, t+1) {
			v = nil
		}
		d.bottom.Store(b + 1)
	}
	return v
}

// steal removes and returns the oldest node — the victim's worst (highest
// LB) subproblem. Safe from any goroutine. retry reports a lost CAS race
// (the deque may still hold work worth another attempt); a nil node with
// retry=false means the deque was observed empty.
func (d *deque) steal() (v *bb.PNode, retry bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil, false
	}
	r := d.ring.Load()
	v = r.get(t)
	if !d.top.CompareAndSwap(t, t+1) {
		return nil, true
	}
	return v, false
}
