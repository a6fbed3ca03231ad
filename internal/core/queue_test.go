package core

import (
	"slices"
	"testing"

	"evotree/internal/compact"
)

// TestReadyQueueLargestFirst pins the pool's order: the node with the most
// members first and, among equals, the one handed over first; ids count
// the hand-overs.
func TestReadyQueueLargestFirst(t *testing.T) {
	q := newReadyQueue(1)
	for _, size := range []int{2, 5, 3, 5, 2} {
		q.push(&compact.Hierarchy{Members: make([]int, size)})
	}
	q.close()
	var got []int
	for j := q.pop(); j != nil; j = q.pop() {
		got = append(got, j.id)
	}
	if want := []int{1, 3, 2, 0, 4}; !slices.Equal(got, want) {
		t.Fatalf("popped ids %v, want %v", got, want)
	}
	if q.park() {
		t.Fatal("park reported a wake after the queue was drained and closed")
	}
}
