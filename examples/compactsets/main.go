// compactsets: walk through the compact-set machinery itself — the MST,
// the detection algorithm, the laminar hierarchy, and the reduced
// (maximum) matrices — on the paper's own worked example.
//
//	go run ./examples/compactsets
package main

import (
	"fmt"
	"log"

	"evotree/internal/compact"
	"evotree/internal/graph"
	"evotree/internal/matrix"
)

func main() {
	// The six-vertex example of Section 3.1 (figures 3–5), made metric:
	// MST edge order (1,3) (4,6) (1,2) (3,5) (5,6); compact sets
	// (1,3) (4,6) (1,2,3) (1,2,3,5).
	input := `6
v1 0 3 1 6 4.5 6.2
v2 3 0 3.5 6.4 4.6 6.5
v3 1 3.5 0 6.6 4 6.7
v4 6 6.4 6.6 0 5.5 2
v5 4.5 4.6 4 5.5 0 5
v6 6.2 6.5 6.7 2 5 0
`
	m, err := matrix.ParseString(input)
	if err != nil {
		log.Fatal(err)
	}

	mst, err := graph.MST(m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("minimum spanning tree (Kruskal, ascending):")
	for _, e := range mst {
		fmt.Printf("  (%s, %s)  weight %g\n", m.Name(e.U), m.Name(e.V), e.Weight)
	}

	sets, err := compact.Find(m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncompact sets (Max inside < Min leaving):")
	for _, s := range sets {
		fmt.Printf("  %v  compact=%v\n", names(m, s), compact.IsCompact(m, s))
	}

	hier, _, err := compact.BuildHierarchy(m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlaminar hierarchy: %s\n", hier)
	fmt.Printf("subproblems to solve: %d\n\n", hier.Count())

	// Show the reduced matrix at each internal node. Its rows carry short
	// labels, so each row is printed under the group's full name.
	var show func(h *compact.Hierarchy)
	show = func(h *compact.Hierarchy) {
		if h.IsLeaf() {
			return
		}
		small, kids, err := compact.Reduce(m, h, compact.Maximum)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("maximum matrix over group %v (%d children):\n", names(m, h.Members), len(kids))
		for i, ch := range kids {
			fmt.Printf("  %-16s", compact.GroupName(m, ch))
			for j := range kids {
				fmt.Printf(" %4g", small.At(i, j))
			}
			fmt.Println()
		}
		fmt.Println()
		for _, ch := range kids {
			show(ch)
		}
	}
	show(hier)
}

func names(m *matrix.Matrix, idx []int) []string {
	out := make([]string, len(idx))
	for i, v := range idx {
		out[i] = m.Name(v)
	}
	return out
}
