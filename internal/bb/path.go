package bb

import "fmt"

// Insertion-path encoding. A BBT node is fully determined by the sequence
// of insertion positions that built it: entry i of a path is the position
// (in posNode's numbering: [0, 2K−2) selects an edge in node-id order
// skipping the root, 2K−2 inserts above the root) at which permuted
// species i+2 joined the topology. Because insert assigns node ids purely
// by insertion ORDER — species s always becomes leaf 2s−1 and creates
// internal node 2s — the encoding is canonical: any two engines that
// replay the same path over the same Problem build bit-identical PNodes,
// including Cost and LB. The distributed farm ships both work units and
// incumbent solutions across processes in this form, and the receiving
// side re-derives every bound itself instead of trusting the sender.

// Child returns the child of v obtained by inserting the next permuted
// species at pos, drawn from np. Unlike Expand it builds exactly one
// selected child with no bound filtering, so insertion positions stay
// recoverable. It fails when v is complete or pos is out of range.
func (p *Problem) Child(v *PNode, pos int, np *NodePool) (*PNode, error) {
	if v.Complete(p) {
		return nil, fmt.Errorf("bb: Child of a complete topology (K=%d)", v.K)
	}
	if pos < 0 || pos >= v.Positions() {
		return nil, fmt.Errorf("bb: position %d out of range [0,%d)", pos, v.Positions())
	}
	// The same pricing pass as Expand, so a replayed child is
	// bit-identical to the one Expand kept.
	md, r := np.scratch(v.Positions())
	base := p.price(v, v.K, md, r)
	e := v.posNode(pos)
	return p.insert(v, v.K, e, base+spend(v, e, md, r), np, md), nil
}

// WalkPath replays an insertion path from the BBT root and returns the
// resulting node. Intermediate nodes are recycled through np. An empty
// path returns the root itself. Any malformed path (too long, position
// out of range) returns an error naming the offending entry, so a
// coordinator can reject a corrupt wire unit instead of panicking.
func (p *Problem) WalkPath(path []int, np *NodePool) (*PNode, error) {
	v := p.Root()
	for i, pos := range path {
		c, err := p.Child(v, pos, np)
		if err != nil {
			np.Put(v)
			return nil, fmt.Errorf("bb: path entry %d: %w", i, err)
		}
		np.Put(v)
		v = c
	}
	return v, nil
}

// Path returns the insertion path that reconstructs v from the BBT root:
// p.WalkPath(v.Path(), np) rebuilds a bit-identical node. It works by
// peeling species off a scratch copy of the topology in reverse insertion
// order — species s is always leaf 2s−1 under internal node 2s, so each
// removal restores the exact prior topology and exposes the position the
// insertion used. O(K) time and scratch, no mutation of v.
func (v *PNode) Path() []int {
	nn := 2*v.K - 1
	parent := append([]int32(nil), v.parent[:nn]...)
	left := append([]int32(nil), v.left[:nn]...)
	right := append([]int32(nil), v.right[:nn]...)
	root := v.root
	path := make([]int, v.K-2)
	for s := v.K - 1; s >= 2; s-- {
		leaf := int32(2*s - 1)
		in := int32(2 * s)
		e := left[in]
		if e == leaf {
			e = right[in]
		}
		par := parent[in]
		if par == -1 {
			// Species s was inserted above the then-root e.
			path[s-2] = 2*s - 2
			root = e
			parent[e] = -1
			continue
		}
		// Species s was inserted on the parent edge of e: contract the
		// internal node 2s back out of the topology.
		if left[par] == in {
			left[par] = e
		} else {
			right[par] = e
		}
		parent[e] = par
		pos := int(e)
		if e > root {
			pos-- // posNode's numbering skips the root
		}
		path[s-2] = pos
	}
	return path
}
