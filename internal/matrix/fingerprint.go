package matrix

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
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
//     is already discrete.
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
//     longer guaranteed invariant.

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
	if best, ok := m.canonSearch(class); ok {
		return best
	}
	// Budget exhausted: deterministic fallback, ordered by class then
	// original index.
	sort.SliceStable(perm, func(a, b int) bool { return class[perm[a]] < class[perm[b]] })
	return perm
}

// wlClasses computes the stable refinement partition: class[i] is species
// i's class, densely numbered in canonical (signature-sorted) order.
func (m *Matrix) wlClasses() []int {
	n := m.Len()
	class := make([]int, n)
	sigs := make([]string, n)

	// Initial partition: the sorted multiset of each row's distances.
	row := make([]uint64, n-1)
	for i := 0; i < n; i++ {
		k := 0
		for j := 0; j < n; j++ {
			if j != i {
				row[k] = math.Float64bits(m.d[i][j])
				k++
			}
		}
		sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
		sigs[i] = u64String(row)
	}
	classes := rerank(sigs, class)

	// Refine: re-key each species by its own class followed by the sorted
	// multiset of its (neighbor class, distance) pairs, until the class
	// count stabilizes. Including the own class makes each round a true
	// refinement (classes can only split, never merge), so an unchanged
	// class count means an unchanged partition and the loop runs at most
	// n-1 effective rounds.
	pair := make([]uint64, 2*(n-1)+1)
	for round := 0; round < n; round++ {
		for i := 0; i < n; i++ {
			pair[0] = uint64(class[i])
			k := 1
			for j := 0; j < n; j++ {
				if j != i {
					pair[k] = uint64(class[j])
					pair[k+1] = math.Float64bits(m.d[i][j])
					k += 2
				}
			}
			sortPairs(pair[1:])
			sigs[i] = u64String(pair)
		}
		next := rerank(sigs, class)
		if next == classes {
			break
		}
		classes = next
	}
	return class
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
		var cands []int
		minBlock := make([]uint64, 0, k)
		haveMin := false
		block := make([]uint64, k)
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
				c = cmpU64(block, minBlock)
			}
			switch {
			case c < 0:
				haveMin = true
				minBlock = append(minBlock[:0], block...)
				cands = append(cands[:0], v)
			case c == 0:
				cands = append(cands, v)
			}
		}
		// All surviving candidates share the identical block, so one
		// bound check covers the whole node.
		childBetter := better
		if !better && best != nil {
			switch cmpU64(minBlock, bestSeq[len(curSeq):len(curSeq)+k]) {
			case 1:
				return // every completion is worse than best
			case -1:
				childBetter = true
			}
		}
		curSeq = append(curSeq, minBlock...)
		for _, v := range cands {
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

// cmpU64 lexicographically compares equal-length uint64 slices.
func cmpU64(a, b []uint64) int {
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// rerank densely renumbers class in the sort order of sigs and returns
// the class count.
func rerank(sigs []string, class []int) int {
	uniq := append([]string(nil), sigs...)
	sort.Strings(uniq)
	rank := make(map[string]int, len(uniq))
	for _, s := range uniq {
		if _, ok := rank[s]; !ok {
			rank[s] = len(rank)
		}
	}
	for i, s := range sigs {
		class[i] = rank[s]
	}
	return len(rank)
}

// sortPairs sorts a flat [c0,d0,c1,d1,...] slice by (c,d) pairs.
func sortPairs(p []uint64) {
	n := len(p) / 2
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if p[2*idx[a]] != p[2*idx[b]] {
			return p[2*idx[a]] < p[2*idx[b]]
		}
		return p[2*idx[a]+1] < p[2*idx[b]+1]
	})
	out := make([]uint64, len(p))
	for k, i := range idx {
		out[2*k], out[2*k+1] = p[2*i], p[2*i+1]
	}
	copy(p, out)
}

// u64String packs a uint64 slice into a string usable as a map key.
func u64String(v []uint64) string {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.BigEndian.PutUint64(b[8*i:], x)
	}
	return string(b)
}

// Fingerprint returns a hex SHA-256 over the canonical relabeling of m:
// equal fingerprints imply the matrices are species permutations of each
// other (hash collisions aside), independent of species names. This is
// the cache key primitive of the web service — see the package comment
// in internal/web/solve.go for how it is combined with solve options.
func (m *Matrix) Fingerprint() string {
	fp, _ := m.CanonicalFingerprint()
	return fp
}

// CanonicalFingerprint returns the fingerprint together with the
// canonical permutation that produced it, so callers can relabel the
// matrix (or a cached tree) into/out of canonical order without
// recomputing the refinement.
func (m *Matrix) CanonicalFingerprint() (string, []int) {
	perm := m.CanonicalPermutation()
	n := m.Len()
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(n))
	h.Write(buf[:])
	// Full canonical matrix, upper triangle (symmetry makes the rest
	// redundant), row by row in canonical order.
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			binary.BigEndian.PutUint64(buf[:], math.Float64bits(m.d[perm[a]][perm[b]]))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)), perm
}
