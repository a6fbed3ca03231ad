package bb

import "container/heap"

// Best-first search: an alternative exploration order to the paper's DFS.
// The frontier is a priority queue keyed by lower bound, so the node most
// likely to lead to the optimum is always expanded next. Best-first
// expands the theoretically minimal number of nodes (no node with
// LB > optimum is ever expanded, versus DFS which may descend into doomed
// subtrees before the bound tightens), at the price of a frontier that can
// grow exponentially large in memory. The ablation-search experiment
// quantifies the trade on this implementation.

// SolveBestFirst runs the branch-and-bound with a best-first frontier: the
// sequential driver of SolveSequential over a NodeHeap instead of a stack.
// Options are honored as in SolveSequential; MaxNodes doubles as a memory
// guard since the frontier can grow large.
func (p *Problem) SolveBestFirst(opt Options) *Result {
	return p.solve(opt, true)
}

// NodeHeap is a container/heap min-heap of PNodes by LB (ties: deeper node
// first, which drives toward complete solutions and keeps the heap
// smaller). It is the best-first frontier here and the parallel engine's
// global seed/overflow ring.
type NodeHeap []*PNode

func (h NodeHeap) Len() int { return len(h) }
func (h NodeHeap) Less(i, j int) bool {
	if h[i].LB != h[j].LB {
		return h[i].LB < h[j].LB
	}
	return h[i].K > h[j].K
}
func (h NodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *NodeHeap) Push(x any)   { *h = append(*h, x.(*PNode)) }
func (h *NodeHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return v
}

// frontier holds the sequential driver's open nodes: a DFS stack, or a
// NodeHeap when best is set.
type frontier struct {
	nodes NodeHeap
	best  bool
}

func (f *frontier) push(v *PNode) {
	if f.best {
		heap.Push(&f.nodes, v)
		return
	}
	f.nodes = append(f.nodes, v)
}

func (f *frontier) pop() *PNode {
	if f.best {
		return heap.Pop(&f.nodes).(*PNode)
	}
	v := f.nodes[len(f.nodes)-1]
	f.nodes = f.nodes[:len(f.nodes)-1]
	return v
}
