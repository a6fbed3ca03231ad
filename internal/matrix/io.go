package matrix

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Parse reads a matrix in a PHYLIP-like format:
//
//	n
//	name d1 d2 ... dn     (n rows)
//
// Whitespace separates fields; blank lines and lines starting with '#' are
// ignored. The parsed matrix must pass Check.
func Parse(r io.Reader) (*Matrix, error) {
	// A nil buffer starts at bufio's 4 KiB and grows to the line cap, so
	// a small matrix does not pay for a large buffer.
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 16*1024*1024)
	line, err := nextLine(sc)
	if err != nil {
		return nil, fmt.Errorf("matrix: missing header: %w", err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(line))
	if err != nil {
		return nil, fmt.Errorf("matrix: bad species count %q: %w", line, err)
	}
	if n < 0 {
		return nil, fmt.Errorf("matrix: negative species count %d", n)
	}
	// Allocate incrementally: a hostile header ("9999999999999") must not
	// reserve memory before the rows actually arrive.
	hint := n
	if hint > 1024 {
		hint = 1024
	}
	names := make([]string, 0, hint)
	raw := make([][]float64, 0, hint)
	for i := 0; i < n; i++ {
		line, err := nextLine(sc)
		if err != nil {
			return nil, fmt.Errorf("matrix: missing row %d: %w", i+1, err)
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			return nil, fmt.Errorf("matrix: empty row %d", i+1)
		}
		names = append(names, fields[0])
		row := make([]float64, len(fields)-1)
		for j, f := range fields[1:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("matrix: row %d column %d: %w", i+1, j+1, err)
			}
			row[j] = v
		}
		raw = append(raw, row)
	}
	m, err := NewWithNames(names)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return m, nil
	}
	// Shape detection from row 0: a full square has n values per row, a
	// PHYLIP lower triangle has i+1 values in row i (with the diagonal)
	// or i values (without it). For n == 1 all readings coincide.
	var shape string
	switch len(raw[0]) {
	case n:
		shape = "full"
		if n == 1 {
			shape = "lower+diag"
		}
	case 1:
		shape = "lower+diag"
	case 0:
		shape = "lower"
	default:
		return nil, fmt.Errorf("matrix: row 1 has %d values; want %d (full square), 1 or 0 (PHYLIP lower triangle)", len(raw[0]), n)
	}
	for i := range raw {
		want := n
		switch shape {
		case "lower+diag":
			want = i + 1
		case "lower":
			want = i
		}
		if len(raw[i]) != want {
			return nil, fmt.Errorf("matrix: row %d has %d values, want %d for a %s matrix", i+1, len(raw[i]), want, shape)
		}
	}
	switch shape {
	case "full":
		for i := range raw {
			copy(m.d[i], raw[i])
		}
	case "lower+diag":
		for i := range raw {
			for j := 0; j < i; j++ {
				m.Set(i, j, raw[i][j])
			}
			if raw[i][i] != 0 {
				return nil, fmt.Errorf("matrix: row %d diagonal entry %g, want 0", i+1, raw[i][i])
			}
		}
	case "lower":
		for i := range raw {
			for j := 0; j < i; j++ {
				m.Set(i, j, raw[i][j])
			}
		}
	}
	if err := m.Check(); err != nil {
		return nil, err
	}
	return m, nil
}

// ParseString is Parse over a string.
func ParseString(s string) (*Matrix, error) { return Parse(strings.NewReader(s)) }

// Write renders the matrix in the format accepted by Parse.
func (m *Matrix) Write(w io.Writer) error {
	_, err := io.WriteString(w, m.String())
	return err
}

func nextLine(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}
