package tree

// This file exports the clade-level inspection helpers the verification
// layer (internal/verify) and the decomposition pipeline (internal/core)
// use to check the paper's relation-structure theorem: every compact set
// must appear as a clade of the constructed tree.

import (
	"fmt"
	"sort"
)

// LeavesUnder returns the species indices of all leaves in the subtree
// rooted at node id, in left-to-right order.
func (t *Tree) LeavesUnder(id int) []int {
	n := &t.Nodes[id]
	if n.Species >= 0 {
		return []int{n.Species}
	}
	return append(t.LeavesUnder(n.Left), t.LeavesUnder(n.Right)...)
}

// MRCA returns the node id of the most recent common ancestor of all the
// given species. It panics if the slice is empty or any species is absent
// (like LCA).
func (t *Tree) MRCA(species []int) int {
	if len(species) == 0 {
		panic("tree: MRCA of empty species set")
	}
	if len(species) == 1 {
		return t.leafNode(species[0])
	}
	lca := t.LCA(species[0], species[1])
	for _, s := range species[2:] {
		// Folding against a fixed representative is enough: the MRCA of a
		// set is the deepest node containing all of it, and each step can
		// only move the candidate upward.
		l2 := t.LCA(species[0], s)
		if t.isAncestor(lca, l2) {
			lca = l2
		}
	}
	return lca
}

// isAncestor reports whether b is a (non-strict) ancestor of a.
func (t *Tree) isAncestor(a, b int) bool {
	for a != NoNode {
		if a == b {
			return true
		}
		a = t.Nodes[a].Parent
	}
	return false
}

// CladeCheck returns nil when the given species are exactly the leaf set
// of some subtree of t — the paper's notion of the set "appearing in" the
// tree (Lemma 1: every compact set is a clade of a relation-faithful
// tree) — and otherwise an error naming the first leaf that intrudes into
// (or is missing from) the smallest subtree spanning them. Sets of size
// zero or one are clades trivially (when present).
func (t *Tree) CladeCheck(species []int) error {
	if len(species) < 2 {
		if len(species) == 1 && t.leafNode(species[0]) == NoNode {
			return fmt.Errorf("tree: species %d not present", species[0])
		}
		return nil
	}
	in := make(map[int]bool, len(species))
	for _, s := range species {
		in[s] = true
	}
	under := t.LeavesUnder(t.MRCA(species))
	if len(under) != len(in) {
		sort.Ints(under)
		for _, leaf := range under {
			if !in[leaf] {
				return fmt.Errorf("tree: species %v are not a clade: leaf %d intrudes", species, leaf)
			}
		}
	}
	return nil
}
