package tree

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSVGBasics(t *testing.T) {
	tr := Join(Join(New(0), New(1), 1), Join(New(2), New(3), 2), 4)
	tr.SetNames([]string{"a", "b<c", "c", "d"})
	svg := tr.SVG()
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>") {
		t.Fatalf("not an SVG document:\n%s", svg)
	}
	for _, want := range []string{">a</text>", "&lt;", "<path"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("SVG missing %q:\n%s", want, svg)
		}
	}
	// One text element per leaf.
	if got := strings.Count(svg, "<text"); got != 4 {
		t.Fatalf("%d labels, want 4", got)
	}
	// Empty tree renders an empty document, not a panic.
	if svg := (&Tree{}).SVG(); !strings.HasPrefix(svg, "<svg") {
		t.Fatal("empty SVG malformed")
	}
	// Single-leaf tree must not divide by zero.
	single := New(0)
	if svg := single.SVG(); !strings.Contains(svg, "S1") {
		t.Fatalf("single leaf missing label:\n%s", svg)
	}
}

// TestJSONRoundTrip decodes MarshalJSON's output as JSONNode: the leaves
// carry the species names, each edge length is the parent's height minus
// the child's, the lengths sum to the cost, and every pair of leaves meets
// at an internal node of height d_T/2.
func TestJSONRoundTrip(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		tr := randomUltraTree(rng, n)
		names := make([]string, n)
		for i := range names {
			names[i] = string(rune('a' + i))
		}
		tr.SetNames(names)
		data, err := json.Marshal(tr)
		if err != nil {
			return false
		}
		var root JSONNode
		if err := json.Unmarshal(data, &root); err != nil {
			return false
		}
		species := map[string]int{}
		for i, nm := range names {
			species[nm] = i
		}
		ok := root.Length == 0
		cost := 0.0
		// walk returns the species under j, checking j's subtree.
		var walk func(j *JSONNode) []int
		walk = func(j *JSONNode) []int {
			cost += j.Length
			if len(j.Children) == 0 {
				s, found := species[j.Name]
				ok = ok && found
				return []int{s}
			}
			if len(j.Children) != 2 {
				ok = false
				return nil
			}
			var sides [2][]int
			for c, ch := range j.Children {
				if math.Abs(j.Height-ch.Height-ch.Length) > 1e-9 {
					ok = false
				}
				sides[c] = walk(ch)
			}
			for _, a := range sides[0] {
				for _, b := range sides[1] {
					if math.Abs(2*j.Height-tr.Dist(a, b)) > 1e-9 {
						ok = false
					}
				}
			}
			return append(sides[0], sides[1]...)
		}
		leaves := walk(&root)
		return ok && len(leaves) == n && math.Abs(cost-tr.Cost()) <= 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalEmptyTree(t *testing.T) {
	data, err := json.Marshal(&Tree{})
	if err != nil || string(data) != "null" {
		t.Fatalf("empty tree JSON = %s, %v", data, err)
	}
}
