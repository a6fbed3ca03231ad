package matrix

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Parse reads a matrix in a PHYLIP-like format:
//
//	n
//	name d1 d2 ... dn     (n rows)
//
// Whitespace separates fields; blank lines and lines starting with '#' are
// ignored. The parsed matrix must pass Check. Parse reads r whole and
// parses it with ParseString.
func Parse(r io.Reader) (*Matrix, error) {
	var b strings.Builder
	if _, err := io.Copy(&b, r); err != nil {
		return nil, fmt.Errorf("matrix: read: %w", err)
	}
	return ParseString(b.String())
}

// Shapes a matrix text may take, told apart by the value count of its
// first row.
const (
	shapeFull      = "full"       // n values per row
	shapeLowerDiag = "lower+diag" // PHYLIP lower triangle, i+1 values in row i
	shapeLower     = "lower"      // PHYLIP lower triangle, i values in row i
)

// ParseString parses a matrix in the format Parse reads. Lines end at
// '\n' and fields are separated by Unicode white space, as bufio.Scanner's
// lines and strings.Fields split them. Each value is written straight into
// the matrix's backing array, and the names are copied out of s, so the
// matrix keeps no reference to s.
//
// Errors come in the order of a reader that first parses every row and
// then checks names, shape and values: a missing row or an unparsable
// value (the first in the text) beats a duplicate name, which beats a
// row of the wrong length, which beats a non-zero diagonal entry of a
// lower triangle, which beats Check.
func ParseString(s string) (*Matrix, error) {
	p := parser{s: s}
	start, end, ok := p.nextLine()
	if !ok {
		return nil, fmt.Errorf("matrix: missing header: %w", io.ErrUnexpectedEOF)
	}
	header := s[start:end]
	n, err := strconv.Atoi(header)
	if err != nil {
		return nil, fmt.Errorf("matrix: bad species count %q: %w", header, err)
	}
	if n < 0 {
		return nil, fmt.Errorf("matrix: negative species count %d", n)
	}
	// A hostile header ("9999999999999") must not reserve memory before
	// the rows arrive. Every row is a name and a line end, so the text
	// left holds at most (len+1)/2 rows; and a text holding all n rows of
	// any shape has more than n² bytes, so a shorter one gets no table
	// (its parse fails before the table would be read).
	names := make([]string, 0, min(n, (len(s)-p.pos+1)/2))
	var d []float64
	if n > 0 && n <= len(s)/n {
		d = make([]float64, n*n)
	}
	shape := ""
	var shapeErr, diagErr error
	for i := 0; i < n; i++ {
		start, end, ok := p.nextLine()
		if !ok {
			return nil, fmt.Errorf("matrix: missing row %d: %w", i+1, io.ErrUnexpectedEOF)
		}
		a, b := field(s, start, end)
		names = append(names, s[a:b])
		var row []float64
		if d != nil {
			row = d[i*n : (i+1)*n]
		}
		count := 0
		var diag float64
		for {
			a, b = field(s, b, end)
			if a == b {
				break
			}
			tok := s[a:b]
			j := count
			count++
			var v float64
			if j < i && row != nil && sameToken(s, row[j], tok) {
				// Until row i is read, its cell (i, j) below the
				// diagonal holds the position of the token parsed for
				// (j, i). Equal bytes parse to the same float, so the
				// mirrored value is reused exactly; Check still
				// compares the two cells.
				v = d[j*n+i]
			} else if v, err = strconv.ParseFloat(tok, 64); err != nil {
				return nil, fmt.Errorf("matrix: row %d column %d: %w", i+1, j+1, err)
			}
			if j == i {
				diag = v
			}
			if j < len(row) {
				row[j] = v
				if j > i {
					d[j*n+i] = float64(a + 1)
				}
			}
		}
		if i == 0 {
			switch {
			case count == n && n > 1:
				shape = shapeFull
			case count == 1:
				shape = shapeLowerDiag
			case count == 0:
				shape = shapeLower
			default:
				shapeErr = fmt.Errorf("matrix: row 1 has %d values; want %d (full square), 1 or 0 (PHYLIP lower triangle)", count, n)
			}
		}
		if shapeErr == nil {
			if want := rowLen(shape, i, n); count != want {
				shapeErr = fmt.Errorf("matrix: row %d has %d values, want %d for a %s matrix", i+1, count, want, shape)
			}
		}
		if shape == shapeLowerDiag && count > i && diag != 0 && diagErr == nil {
			diagErr = fmt.Errorf("matrix: row %d diagonal entry %g, want 0", i+1, diag)
		}
	}
	if name, ok := firstDuplicate(names); ok {
		return nil, fmt.Errorf("matrix: duplicate species name %q", name)
	}
	if shapeErr != nil {
		return nil, shapeErr
	}
	if diagErr != nil {
		return nil, diagErr
	}
	if shape != shapeFull {
		// A lower triangle: mirror it, and clear the diagonal a
		// lower+diag text wrote (it may read -0).
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				d[j*n+i] = d[i*n+j]
			}
			d[i*n+i] = 0
		}
	}
	m := &Matrix{names: copyNames(names), d: make([][]float64, n)}
	for i := range m.d {
		m.d[i] = d[i*n : (i+1)*n]
	}
	if err := m.Check(); err != nil {
		return nil, err
	}
	return m, nil
}

// rowLen is the value count of row i of an n-species matrix of the shape.
func rowLen(shape string, i, n int) int {
	switch shape {
	case shapeLowerDiag:
		return i + 1
	case shapeLower:
		return i
	}
	return n
}

// sameToken reports whether mark, the position plus one of an earlier
// token of s (0 for none), marks a token whose bytes equal tok, a later
// token of s.
func sameToken(s string, mark float64, tok string) bool {
	if mark == 0 {
		return false
	}
	q := int(mark) - 1
	end := q + len(tok)
	return s[q:end] == tok && (end == len(s) || spaceWidth(s, end) > 0)
}

// firstDuplicate returns the first name, in order, that repeats an
// earlier one: the one NewWithNames reports.
func firstDuplicate(names []string) (string, bool) {
	idx := make([]int32, len(names))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		if c := strings.Compare(names[a], names[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	// Each run of equal names is now in index order, so the repeat met
	// first in the list is the smallest index that follows its own name.
	first := int32(-1)
	for k := 1; k < len(idx); k++ {
		if names[idx[k]] == names[idx[k-1]] && (first < 0 || idx[k] < first) {
			first = idx[k]
		}
	}
	if first < 0 {
		return "", false
	}
	return names[first], true
}

// copyNames copies names into one string of their own, so a matrix does
// not keep the text it was parsed from alive.
func copyNames(names []string) []string {
	size := 0
	for _, name := range names {
		size += len(name)
	}
	var b strings.Builder
	b.Grow(size)
	for _, name := range names {
		b.WriteString(name)
	}
	all := b.String()
	for i, name := range names {
		names[i], all = all[:len(name)], all[len(name):]
	}
	return names
}

// parser walks the lines of a matrix text.
type parser struct {
	s   string
	pos int // start of the next line
}

// nextLine returns the bounds of the next line that is neither blank nor
// a '#' comment, trimmed of white space as strings.TrimSpace trims it.
func (p *parser) nextLine() (start, end int, ok bool) {
	s := p.s
	for p.pos < len(s) {
		start = p.pos
		if k := strings.IndexByte(s[start:], '\n'); k >= 0 {
			end, p.pos = start+k, start+k+1
		} else {
			end, p.pos = len(s), len(s)
		}
		for start < end {
			w := spaceWidth(s, start)
			if w == 0 {
				break
			}
			start += w
		}
		for start < end {
			if c := s[end-1]; c < utf8.RuneSelf {
				if !asciiSpace[c] {
					break
				}
				end--
				continue
			}
			r, w := utf8.DecodeLastRuneInString(s[start:end])
			if !unicode.IsSpace(r) {
				break
			}
			end -= w
		}
		if start < end && s[start] != '#' {
			return start, end, true
		}
	}
	return 0, 0, false
}

// field returns the bounds of the first field of s[i:end], or end, end
// when there is none.
func field(s string, i, end int) (int, int) {
	for i < end {
		w := spaceWidth(s, i)
		if w == 0 {
			break
		}
		i += w
	}
	j := i
	for j < end {
		if c := s[j]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				break
			}
		} else if spaceWidth(s, j) > 0 {
			break
		}
		// A byte inside a multi-byte rune never begins a space, so the
		// scan may step one byte at a time.
		j++
	}
	return i, j
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// spaceWidth returns the byte width of the white-space rune at s[i], or 0
// when s[i] begins anything else.
func spaceWidth(s string, i int) int {
	if c := s[i]; c < utf8.RuneSelf {
		if asciiSpace[c] {
			return 1
		}
		return 0
	}
	r, w := utf8.DecodeRuneInString(s[i:])
	if unicode.IsSpace(r) {
		return w
	}
	return 0
}

// Write renders the matrix in the format accepted by Parse.
func (m *Matrix) Write(w io.Writer) error {
	_, err := io.WriteString(w, m.String())
	return err
}
