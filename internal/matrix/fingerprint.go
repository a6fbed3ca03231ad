package matrix

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"sort"
)

// This file implements the permutation-invariant matrix fingerprint that
// keys evoweb's result cache. Soundness rests on two facts:
//
//  1. The fingerprint hashes a *canonical relabeling* of the matrix — a
//     full copy of its distances, reordered by CanonicalPermutation. Two
//     matrices therefore share a fingerprint only if their canonical
//     forms are bitwise identical, i.e. only if one is a species
//     relabeling of the other (modulo a SHA-256 collision). An imperfect
//     canonicalization can never cause a *wrong* cache hit, only a
//     missed one.
//  2. The optimal ultrametric-tree cost is invariant under species
//     relabeling (the verification suite's metamorphic permutation
//     property), so serving a relabeled cached tree is serving an
//     optimal tree.
//
// Canonicalization runs in two stages:
//
//   - Partition refinement (1-dimensional Weisfeiler–Leman): species
//     start in classes keyed by their sorted row-distance multiset and
//     are split by the multiset of (neighbor class, distance) pairs
//     until stable. The stable partition is equivariant — it depends
//     only on the distances, not the labeling — and on generic data it
//     is already discrete, often from the first stage on. Signatures
//     are flat uint64 rows ranked by sorting, and refinement stops as
//     soon as the partition is discrete.
//   - Individualization search: within the stable classes, a bounded
//     branch-and-bound picks the species ordering (class blocks first,
//     by class) whose distance sequence is lexicographically minimal.
//     WL-tied species can be symmetric in ways a local tie-break cannot
//     see (swapping two tied species may require a coordinated swap in
//     another class), so the search explores every prefix-tied branch;
//     "twin" species with identical rows are collapsed to one branch,
//     which keeps the highly-symmetric cases (equidistant sets,
//     duplicated species) linear instead of factorial. A node budget
//     bounds adversarial inputs; on exhaustion the refinement order is
//     used as-is — deterministic and still sound for caching, merely no
//     longer guaranteed invariant. A discrete partition leaves the search
//     one candidate per position, so its class order is read off
//     directly.

const canonSearchBudget = 1 << 20 // DFS nodes before giving up on exact canonicalization

// CanonicalPermutation returns a permutation perm (new index k holds old
// species perm[k], the Relabel convention) such that m.Relabel(perm) is a
// canonical representative of m's relabeling class: two matrices that are
// species permutations of each other map to the same canonical matrix
// (within the search budget; see the file comment). Names are ignored —
// the canonical form depends only on the distances.
func (m *Matrix) CanonicalPermutation() []int {
	n := m.Len()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	if n < 2 {
		return perm
	}
	class := m.wlClasses()
	if slices.Max(class) == n-1 {
		// Discrete: at depth k canonSearch has exactly one candidate, the
		// species of class k, so its ordering is the class order.
		for i, c := range class {
			perm[c] = i
		}
		return perm
	}
	if best, ok := m.canonSearch(class); ok {
		return best
	}
	// Budget exhausted: deterministic fallback, ordered by class then
	// original index.
	sort.SliceStable(perm, func(a, b int) bool { return class[perm[a]] < class[perm[b]] })
	return perm
}

// wlClasses computes the stable refinement partition: class[i] is species
// i's class, densely numbered in ascending signature order.
func (m *Matrix) wlClasses() []int {
	n := m.Len()
	class := make([]int, n)
	idx := make([]int, n)

	// Initial partition: the sorted multiset of each row's distances.
	w := n - 1
	rows := make([]uint64, n*w)
	for i, d := range m.d {
		row := rows[i*w : i*w : (i+1)*w]
		for j, v := range d {
			if j != i {
				row = append(row, math.Float64bits(v))
			}
		}
		slices.Sort(row)
	}
	classes := rankRows(rows, w, idx, class)
	if classes == n {
		return class
	}

	// Refine: re-key each species by its own class followed by the sorted
	// multiset of its (neighbor class, distance) pairs, until the class
	// count stabilizes. Including the own class makes each round a true
	// refinement (classes can only split, never merge, and keep their
	// relative order), so an unchanged class count means an unchanged
	// numbering, and a discrete partition cannot change at all. The loop
	// stops on either and runs at most n-1 effective rounds.
	w = 2*(n-1) + 1
	sigs := make([]uint64, n*w)
	pairs := make([][2]uint64, n-1)
	for round := 0; round < n && classes < n; round++ {
		for i, d := range m.d {
			k := 0
			for j, v := range d {
				if j != i {
					pairs[k] = [2]uint64{uint64(class[j]), math.Float64bits(v)}
					k++
				}
			}
			slices.SortFunc(pairs, func(a, b [2]uint64) int {
				if c := cmp.Compare(a[0], b[0]); c != 0 {
					return c
				}
				return cmp.Compare(a[1], b[1])
			})
			sig := sigs[i*w : i*w+1 : (i+1)*w]
			sig[0] = uint64(class[i])
			for _, p := range pairs {
				sig = append(sig, p[0], p[1])
			}
		}
		next := rankRows(sigs, w, idx, class)
		if next == classes {
			break
		}
		classes = next
	}
	return class
}

// rankRows densely numbers the w-wide rows of flat in ascending
// lexicographic order: class[i] counts the distinct rows below row i. It
// returns the number of distinct rows; idx is scratch, one entry per row.
// The numbering fixes the canonical order and so evoweb's cache keys:
// changing this order changes every key.
func rankRows(flat []uint64, w int, idx, class []int) int {
	row := func(i int) []uint64 { return flat[i*w : (i+1)*w] }
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return slices.Compare(row(a), row(b)) })
	c := 0
	for k, i := range idx {
		if k > 0 && !slices.Equal(row(idx[k-1]), row(i)) {
			c++
		}
		class[i] = c
	}
	return c + 1
}

// twinReps collapses "twin" species — same class and identical distances
// to every third species — to one representative each. Swapping two twins
// is an automorphism all by itself, so only one of them ever needs to be
// tried at a search node. rep[i] is the smallest twin-equivalent index.
func (m *Matrix) twinReps(class []int) []int {
	n := m.Len()
	rep := make([]int, n)
	for i := range rep {
		rep[i] = i
	}
	for i := 0; i < n; i++ {
		if rep[i] != i {
			continue
		}
		for j := i + 1; j < n; j++ {
			if rep[j] != j || class[i] != class[j] {
				continue
			}
			twin := true
			for x := 0; x < n && twin; x++ {
				if x != i && x != j && m.d[i][x] != m.d[j][x] {
					twin = false
				}
			}
			if twin {
				rep[j] = i
			}
		}
	}
	return rep
}

// TwinClasses returns rep[i] = the smallest species index that is an
// exact twin of i (rep[i] == i when i has no smaller twin). Two species
// are exact twins when their distances to every third species coincide —
// swapping them is an automorphism of the matrix, so any search may fix a
// canonical order inside a twin class without losing the optimum. It is
// the canonical fingerprint's twin collapse run over a single class: the
// WL refinement never separates exact twins (their row multisets agree,
// and each round keeps them together because swapping them is an
// automorphism), so refining first would change nothing. The relation is
// transitive (twins of twins are twins), so rep is a well-defined class
// representative.
func (m *Matrix) TwinClasses() []int {
	n := m.Len()
	if n == 0 {
		return nil
	}
	return m.twinReps(make([]int, n))
}

// canonSearch finds, by depth-first branch and bound, the ordering of
// species (grouped by ascending class) that minimizes the flattened
// distance sequence seq(o) = d(o0,o1), d(o0,o2), d(o1,o2), d(o0,o3), ...
// — i.e. for each position k, the distances from o_k back to every
// earlier species. The minimum over that (equivariant) candidate set is
// itself equivariant, which is what makes the fingerprint permutation
// invariant even when refinement leaves ties. Returns ok=false when the
// node budget is exhausted.
func (m *Matrix) canonSearch(class []int) ([]int, bool) {
	n := m.Len()
	rep := m.twinReps(class)
	total := n * (n - 1) / 2

	var (
		cur      = make([]int, 0, n)
		curSeq   = make([]uint64, 0, total)
		used     = make([]bool, n)
		best     []int
		bestSeq  []uint64
		budget   = canonSearchBudget
		overflow bool
		// Scratch shared by every node. A depth's candidate list stays
		// live while its children run, so each depth keeps its own.
		block    = make([]uint64, n)
		minBlock = make([]uint64, 0, n)
		cands    = make([][]int, n)
	)

	var dfs func(better bool)
	dfs = func(better bool) {
		if overflow {
			return
		}
		if budget--; budget < 0 {
			overflow = true
			return
		}
		k := len(cur)
		if k == n {
			if better || best == nil {
				best = append(best[:0], cur...)
				bestSeq = append(bestSeq[:0], curSeq...)
			}
			return
		}
		// Candidates: unused species of the minimal remaining class, one
		// per twin group, and among those only the ones whose appended
		// distance block d(o_0..o_{k-1}, v) is lexicographically minimal —
		// any larger block loses to the minimal one at this very position
		// in every completion.
		minClass := -1
		for v := 0; v < n; v++ {
			if !used[v] && (minClass < 0 || class[v] < minClass) {
				minClass = class[v]
			}
		}
		cs := cands[k][:0]
		minBlock = minBlock[:0]
		haveMin := false
		block := block[:k]
		for v := 0; v < n; v++ {
			if used[v] || class[v] != minClass {
				continue
			}
			// Twin collapse: skip v if an unused twin with a smaller index
			// exists — that twin covers this branch.
			skip := false
			for u := rep[v]; u < v; u++ {
				if rep[u] == rep[v] && !used[u] {
					skip = true
					break
				}
			}
			if skip {
				continue
			}
			for j := 0; j < k; j++ {
				block[j] = math.Float64bits(m.d[cur[j]][v])
			}
			c := -1
			if haveMin {
				c = slices.Compare(block, minBlock)
			}
			switch {
			case c < 0:
				haveMin = true
				minBlock = append(minBlock[:0], block...)
				cs = append(cs[:0], v)
			case c == 0:
				cs = append(cs, v)
			}
		}
		cands[k] = cs
		// All surviving candidates share the identical block, so one
		// bound check covers the whole node.
		childBetter := better
		if !better && best != nil {
			switch slices.Compare(minBlock, bestSeq[len(curSeq):len(curSeq)+k]) {
			case 1:
				return // every completion is worse than best
			case -1:
				childBetter = true
			}
		}
		curSeq = append(curSeq, minBlock...)
		for _, v := range cs {
			cur = append(cur, v)
			used[v] = true
			dfs(childBetter)
			used[v] = false
			cur = cur[:k]
		}
		curSeq = curSeq[:len(curSeq)-k]
	}
	dfs(false)
	if overflow || best == nil {
		return nil, false
	}
	return best, true
}

// CanonicalFingerprint returns a hex SHA-256 over the canonical
// relabeling of m, together with the canonical permutation that produced
// it: equal fingerprints imply the matrices are species permutations of
// each other (hash collisions aside), independent of species names. The
// fingerprint is the cache key primitive of the web service — see the
// package comment in internal/web/solve.go for how it is combined with
// solve options — and the permutation lets callers relabel the matrix (or
// a cached tree) into/out of canonical order without recomputing the
// refinement.
func (m *Matrix) CanonicalFingerprint() (string, []int) {
	perm := m.CanonicalPermutation()
	n := m.Len()
	// n, then the canonical matrix's upper triangle (symmetry makes the
	// rest redundant) row by row, each as 8 big-endian bytes.
	buf := make([]byte, 0, 8*(1+n*(n-1)/2))
	buf = binary.BigEndian.AppendUint64(buf, uint64(n))
	for a, pa := range perm {
		row := m.d[pa]
		for _, pb := range perm[a+1:] {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(row[pb]))
		}
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:]), perm
}
