package tree

// This file implements the topology side of the 3-3 relationship of the
// companion paper (Definition 11).

// TripleRelation describes which pair of a species triple is the "close"
// pair, i.e. which two species share the deepest LCA.
type TripleRelation int

// Relations of a triple (i, j, k). None means no pair is strictly closest
// (a tie).
const (
	None TripleRelation = iota
	IJ                  // i and j are siblings relative to k
	IK                  // i and k are siblings relative to j
	JK                  // j and k are siblings relative to i
)

// TreeTriple classifies the triple by the topology: the pair with the
// strictly deeper LCA is the close pair (LCA(i,j) below LCA(i,k) = LCA(j,k)
// ⇒ IJ, etc.). In a rooted binary tree exactly one pair of any triple of
// leaves has a strictly deeper (or equal-depth) LCA; equal heights across
// all three LCAs yield None.
func (t *Tree) TreeTriple(i, j, k int) TripleRelation {
	hij := t.Nodes[t.LCA(i, j)].Height
	hik := t.Nodes[t.LCA(i, k)].Height
	hjk := t.Nodes[t.LCA(j, k)].Height
	switch {
	case hij < hik && hij < hjk:
		return IJ
	case hik < hij && hik < hjk:
		return IK
	case hjk < hij && hjk < hik:
		return JK
	}
	return None
}
