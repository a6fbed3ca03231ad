package tree

import "strconv"

// Ascii renders the tree as a text dendrogram, one node per line, with
// internal node heights in brackets:
//
//	[4]
//	├─ [1]
//	│  ├─ a
//	│  └─ b
//	└─ [2]
//	   ├─ c
//	   └─ d
//
// It is used by the CLI and the web interface for human inspection; the
// Newick form remains the machine format.
func (t *Tree) Ascii() string {
	if len(t.Nodes) == 0 {
		return ""
	}
	// prefix holds the rails of the node's ancestors; each level appends
	// its three columns and cuts them off again on the way back.
	var buf, prefix []byte
	var walk func(id int, last, root bool)
	walk = func(id int, last, root bool) {
		n := &t.Nodes[id]
		if !root {
			buf = append(buf, prefix...)
			if last {
				buf = append(buf, "└─ "...)
			} else {
				buf = append(buf, "├─ "...)
			}
		}
		if n.Species >= 0 {
			buf = append(buf, t.SpeciesName(n.Species)...)
			buf = append(buf, '\n')
			return
		}
		// The height as %.6g writes it.
		buf = append(buf, '[')
		buf = strconv.AppendFloat(buf, n.Height, 'g', 6, 64)
		buf = append(buf, "]\n"...)
		depth := len(prefix)
		if !root {
			if last {
				prefix = append(prefix, "   "...)
			} else {
				prefix = append(prefix, "│  "...)
			}
		}
		walk(n.Left, false, false)
		walk(n.Right, true, false)
		prefix = prefix[:depth]
	}
	walk(t.Root, true, true)
	return string(buf)
}
