package compact

import (
	"fmt"
	"sort"

	"evotree/internal/matrix"
)

// FindByThreshold detects compact sets by an independent route, used to
// cross-validate the MST-based Find: a set C is compact exactly when
// it is a connected component of the threshold graph G_≤t (the complete
// graph restricted to edges of weight ≤ t) for some t, and satisfies
// Max(C) < Min(C, V∖C). Enumerating the components of G_≤t for every
// distinct distance t therefore visits every candidate. This is O(n⁴) in
// the worst case — fine for validation, not for production (use Find).
//
// Results are returned in the same (size-increasing along nesting chains,
// discovery-ordered) normal form as Find: sorted by (max internal
// distance, members).
func FindByThreshold(m *matrix.Matrix) ([]Set, error) {
	n := m.Len()
	if n == 0 {
		return nil, fmt.Errorf("compact: empty matrix")
	}
	thresholds := m.SortedDistances()
	seen := make(map[string]bool)
	var out []Set
	for _, t := range thresholds {
		for _, comp := range components(m, t) {
			if len(comp) < 2 || len(comp) >= n {
				continue
			}
			key := fmt.Sprint(comp)
			if seen[key] {
				continue
			}
			seen[key] = true
			if IsCompact(m, comp) {
				out = append(out, Set(comp))
			}
		}
	}
	sortSets(m, out)
	return out, nil
}

// components returns the connected components of the graph with edges of
// weight ≤ t, each sorted ascending.
func components(m *matrix.Matrix, t float64) [][]int {
	n := m.Len()
	visited := make([]bool, n)
	var out [][]int
	for s := 0; s < n; s++ {
		if visited[s] {
			continue
		}
		comp := []int{s}
		visited[s] = true
		for qi := 0; qi < len(comp); qi++ {
			u := comp[qi]
			for v := 0; v < n; v++ {
				if !visited[v] && m.At(u, v) <= t {
					visited[v] = true
					comp = append(comp, v)
				}
			}
		}
		sort.Ints(comp)
		out = append(out, comp)
	}
	return out
}

// sortSets orders sets by (max internal distance, lexicographic members),
// the same order Kruskal discovery produces when all distances are
// distinct.
func sortSets(m *matrix.Matrix, sets []Set) {
	maxIn := func(s Set) float64 {
		best := 0.0
		for i := 0; i < len(s); i++ {
			for j := i + 1; j < len(s); j++ {
				if d := m.At(s[i], s[j]); d > best {
					best = d
				}
			}
		}
		return best
	}
	sort.SliceStable(sets, func(a, b int) bool {
		ma, mb := maxIn(sets[a]), maxIn(sets[b])
		if ma != mb {
			return ma < mb
		}
		if len(sets[a]) != len(sets[b]) {
			return len(sets[a]) < len(sets[b])
		}
		for i := range sets[a] {
			if sets[a][i] != sets[b][i] {
				return sets[a][i] < sets[b][i]
			}
		}
		return false
	})
}
