package tree

import (
	"fmt"
	"strconv"
	"strings"
)

// Newick renders the tree in Newick format with branch lengths, e.g.
// "((A:1,B:1):0.5,C:1.5);". Leaf labels come from the attached species
// names (SpeciesName). Each length is written as %g writes it: the
// shortest decimal that reads back to the same float64.
func (t *Tree) Newick() string {
	buf := make([]byte, 0, 16*len(t.Nodes)+1)
	var walk func(id int)
	walk = func(id int) {
		n := &t.Nodes[id]
		if n.Species >= 0 {
			buf = append(buf, escapeNewick(t.SpeciesName(n.Species))...)
		} else {
			buf = append(buf, '(')
			walk(n.Left)
			buf = append(buf, ',')
			walk(n.Right)
			buf = append(buf, ')')
		}
		if n.Parent != NoNode {
			buf = append(buf, ':')
			buf = strconv.AppendFloat(buf, t.Nodes[n.Parent].Height-n.Height, 'g', -1, 64)
		}
	}
	if len(t.Nodes) > 0 {
		walk(t.Root)
	}
	buf = append(buf, ';')
	return string(buf)
}

func escapeNewick(s string) string {
	if strings.ContainsAny(s, "(),:;' \t") {
		return "'" + strings.ReplaceAll(s, "'", "''") + "'"
	}
	return s
}

// ParseNewick parses a binary Newick string with branch lengths into a
// Tree. Species indices are assigned in order of first appearance of each
// leaf name; the name table is attached to the tree. Branch lengths are
// converted to ultrametric heights: the root height is the maximum
// root-to-leaf path length, and each node's height is that maximum minus
// its depth. Parsing fails if the input is not ultrametric within tol,
// contains a non-binary node, or is syntactically malformed.
func ParseNewick(s string, tol float64) (*Tree, error) {
	p := &newickParser{src: s}
	t := &Tree{}
	root, depths, err := p.parseSubtree(t, NoNode, 0)
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == ';' {
		p.pos++
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("newick: trailing input at offset %d", p.pos)
	}
	t.Root = root
	maxDepth := 0.0
	for _, d := range depths {
		if d.depth > maxDepth {
			maxDepth = d.depth
		}
	}
	for _, d := range depths {
		if d.depth < maxDepth-tol {
			return nil, fmt.Errorf("newick: tree is not ultrametric: leaf depth %g vs %g", d.depth, maxDepth)
		}
	}
	// Assign heights: height(v) = maxDepth − depth(v).
	var assign func(id int, depth float64)
	assign = func(id int, depth float64) {
		n := &t.Nodes[id]
		if n.Species >= 0 {
			n.Height = 0
			return
		}
		n.Height = maxDepth - depth
		assign(n.Left, depth+p.lengths[n.Left])
		assign(n.Right, depth+p.lengths[n.Right])
	}
	assign(root, 0)
	t.names = p.names
	return t, nil
}

type leafDepth struct {
	id    int
	depth float64
}

type newickParser struct {
	src     string
	pos     int
	names   []string
	byName  map[string]int
	lengths map[int]float64 // branch length above each node
}

func (p *newickParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n' || p.src[p.pos] == '\r') {
		p.pos++
	}
}

// parseSubtree parses one subtree and returns its root id and the depths of
// its leaves measured from that root.
func (p *newickParser) parseSubtree(t *Tree, parent int, depth float64) (int, []leafDepth, error) {
	if p.lengths == nil {
		p.lengths = make(map[int]float64)
		p.byName = make(map[string]int)
	}
	p.skipSpace()
	if p.pos >= len(p.src) {
		return NoNode, nil, fmt.Errorf("newick: unexpected end of input")
	}
	var id int
	var depths []leafDepth
	if p.src[p.pos] == '(' {
		p.pos++
		id = len(t.Nodes)
		t.Nodes = append(t.Nodes, Node{Species: -1, Left: NoNode, Right: NoNode, Parent: parent})
		l, ld, err := p.parseSubtree(t, id, 0)
		if err != nil {
			return NoNode, nil, err
		}
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != ',' {
			return NoNode, nil, fmt.Errorf("newick: expected ',' at offset %d (binary trees only)", p.pos)
		}
		p.pos++
		r, rd, err := p.parseSubtree(t, id, 0)
		if err != nil {
			return NoNode, nil, err
		}
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != ')' {
			return NoNode, nil, fmt.Errorf("newick: expected ')' at offset %d (binary trees only)", p.pos)
		}
		p.pos++
		t.Nodes[id].Left, t.Nodes[id].Right = l, r
		for _, d := range ld {
			depths = append(depths, leafDepth{d.id, d.depth + p.lengths[l]})
		}
		for _, d := range rd {
			depths = append(depths, leafDepth{d.id, d.depth + p.lengths[r]})
		}
	} else {
		name, err := p.parseName()
		if err != nil {
			return NoNode, nil, err
		}
		sp, ok := p.byName[name]
		if !ok {
			sp = len(p.names)
			p.names = append(p.names, name)
			p.byName[name] = sp
		}
		id = len(t.Nodes)
		t.Nodes = append(t.Nodes, Node{Species: sp, Left: NoNode, Right: NoNode, Parent: parent})
		depths = []leafDepth{{id, 0}}
	}
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == ':' {
		p.pos++
		length, err := p.parseNumber()
		if err != nil {
			return NoNode, nil, err
		}
		p.lengths[id] = length
	}
	return id, depths, nil
}

func (p *newickParser) parseName() (string, error) {
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == '\'' {
		p.pos++
		var b strings.Builder
		for p.pos < len(p.src) {
			c := p.src[p.pos]
			if c == '\'' {
				if p.pos+1 < len(p.src) && p.src[p.pos+1] == '\'' {
					b.WriteByte('\'')
					p.pos += 2
					continue
				}
				p.pos++
				return b.String(), nil
			}
			b.WriteByte(c)
			p.pos++
		}
		return "", fmt.Errorf("newick: unterminated quoted name")
	}
	start := p.pos
	for p.pos < len(p.src) && !strings.ContainsRune("(),:; \t\n\r", rune(p.src[p.pos])) {
		p.pos++
	}
	if p.pos == start {
		return "", fmt.Errorf("newick: expected name at offset %d", p.pos)
	}
	return p.src[start:p.pos], nil
}

func (p *newickParser) parseNumber() (float64, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && strings.ContainsRune("0123456789+-.eE", rune(p.src[p.pos])) {
		p.pos++
	}
	v, err := strconv.ParseFloat(p.src[start:p.pos], 64)
	if err != nil {
		return 0, fmt.Errorf("newick: bad branch length at offset %d: %w", start, err)
	}
	return v, nil
}
