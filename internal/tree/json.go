package tree

import "encoding/json"

// JSONNode is the nested-JSON form of a tree, convenient for web clients:
// leaves carry a name, internal nodes carry a height and two children.
type JSONNode struct {
	Name     string      `json:"name,omitempty"`
	Height   float64     `json:"height,omitempty"`
	Length   float64     `json:"length"` // edge length to the parent
	Children []*JSONNode `json:"children,omitempty"`
}

// MarshalJSON renders the tree as nested objects rooted at the tree root.
func (t *Tree) MarshalJSON() ([]byte, error) {
	if len(t.Nodes) == 0 {
		return []byte("null"), nil
	}
	return json.Marshal(t.toJSON(t.Root))
}

func (t *Tree) toJSON(id int) *JSONNode {
	n := &t.Nodes[id]
	out := &JSONNode{Length: t.EdgeWeight(id)}
	if n.Species >= 0 {
		out.Name = t.SpeciesName(n.Species)
		return out
	}
	out.Height = n.Height
	out.Children = []*JSONNode{t.toJSON(n.Left), t.toJSON(n.Right)}
	return out
}
