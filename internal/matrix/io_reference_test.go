package matrix

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// referenceParse is the scanner-based reader ParseString replaced, kept
// verbatim as the reference TestParseMatchesReference and
// FuzzParseMatchesReference compare against. It differs from ParseString
// in one way only: bufio.Scanner caps a line at 16 MiB, and ParseString
// has no cap.
func referenceParse(r io.Reader) (*Matrix, error) {
	// A nil buffer starts at bufio's 4 KiB and grows to the line cap, so
	// a small matrix does not pay for a large buffer.
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 16*1024*1024)
	line, err := referenceNextLine(sc)
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
		line, err := referenceNextLine(sc)
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

func referenceNextLine(sc *bufio.Scanner) (string, error) {
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

// parseDiff reports how ParseString and Parse differ from referenceParse
// on src: in the error text, the names, or the bits of any cell.
func parseDiff(src string) error {
	want, wantErr := referenceParse(strings.NewReader(src))
	for _, parse := range []struct {
		name string
		fn   func(string) (*Matrix, error)
	}{
		{"ParseString", ParseString},
		{"Parse", func(s string) (*Matrix, error) { return Parse(strings.NewReader(s)) }},
	} {
		got, err := parse.fn(src)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			return fmt.Errorf("%s: error %v, reference %v", parse.name, err, wantErr)
		}
		if err != nil {
			continue
		}
		if got.Len() != want.Len() {
			return fmt.Errorf("%s: %d species, reference %d", parse.name, got.Len(), want.Len())
		}
		for i := 0; i < got.Len(); i++ {
			if got.Name(i) != want.Name(i) {
				return fmt.Errorf("%s: name %d is %q, reference %q", parse.name, i, got.Name(i), want.Name(i))
			}
			for j := 0; j < got.Len(); j++ {
				if a, b := math.Float64bits(got.At(i, j)), math.Float64bits(want.At(i, j)); a != b {
					return fmt.Errorf("%s: cell (%d,%d) bits %#x, reference %#x", parse.name, i, j, a, b)
				}
			}
		}
	}
	return nil
}

// lowerText renders m as a PHYLIP lower triangle, with or without the
// diagonal.
func lowerText(m *Matrix, diag bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d\n", m.Len())
	for i := 0; i < m.Len(); i++ {
		b.WriteString(m.Name(i))
		for j := 0; j < i; j++ {
			fmt.Fprintf(&b, " %g", m.At(i, j))
		}
		if diag {
			b.WriteString(" 0")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// referenceCorpus is the generated half of the parser's differential
// corpus: well-formed matrices in every shape and formatting the format
// allows, and the same texts broken in every way a parse can fail.
func referenceCorpus() []string {
	rng := rand.New(rand.NewSource(21))
	var out []string
	add := func(s ...string) { out = append(out, s...) }
	var mats []*Matrix
	for _, n := range []int{1, 2, 3, 5, 8, 13, 20, 32} {
		mats = append(mats, RandomMetric(rng, n, 1, 100))
	}
	for n := 2; n <= 40; n++ {
		mats = append(mats, PerturbedUltrametric(rng, n, 100, 0.8))
	}
	for _, m := range mats {
		full := m.String()
		add(full, lowerText(m, false), lowerText(m, true))
		// Comments, blank lines and CRLF line ends.
		add("# generated\n\n"+strings.ReplaceAll(full, "\n", "\n# note\n\n"),
			strings.ReplaceAll(full, "\n", "\r\n"),
			strings.ReplaceAll(lowerText(m, true), "\n", " \t\r\n"))
		// Unicode blanks: U+00A0 between fields, U+0085 around lines and
		// as a blank line, U+2003 as a separator.
		add(strings.ReplaceAll(full, " ", "\u00a0"),
			strings.ReplaceAll(full, "\n", "\u0085\n\u0085\n"),
			strings.Replace(full, " ", "\u2003", 3))
		if m.Len() < 2 {
			continue
		}
		lines := strings.SplitAfter(full, "\n")
		k := 1 + rng.Intn(m.Len())
		row := strings.TrimSuffix(lines[k], "\n")
		// A short row, a long row, a missing row, an unparsable value.
		add(strings.Replace(full, row, row[:strings.LastIndexByte(row, ' ')], 1),
			strings.Replace(full, row, row+" 7", 1),
			strings.Replace(full, row+"\n", "", 1),
			strings.Replace(full, row, row+"x", 1))
		// A duplicate name, a mirrored value whose bytes differ from its
		// pair's but not its value, and one whose value differs too.
		add(strings.Replace(full, m.Name(k-1)+" ", m.Name(0)+" ", 1))
		c := m.Clone()
		c.Set(0, 1, 3)
		add(strings.Replace(c.String(), " 3 ", " 3.0 ", 1),
			strings.Replace(c.String(), " 3 ", " 30 ", 1),
			strings.Replace(c.String(), " 3 ", " 0x1.8p1 ", 1))
	}
	add(
		// Hostile and malformed headers.
		"100000\na 0\n", "9999999999999", "99999999999999999999999\n",
		"-3\n", "3x\n", " \n\t# only comments\n", "0\n", "0\nextra\n",
		// Non-finite, negative, asymmetric and diagonal values.
		"2\na 0 Inf\nb Inf 0\n", "2\na 0 -inf\nb -inf 0\n", "2\na 0 NaN\nb NaN 0\n",
		"2\na 0 -1\nb -1 0\n", "2\na 0 1\nb 2 0\n", "2\na 5 1\nb 1 0\n",
		"2\na -0 1\nb 1 -0\n", "2\na 0\nb 1 -0\n", "2\na 0\nb 1 2\n", "2\na NaN\nb 1 0\n",
		"3\na\nb 1\nc 1 2 3\n", "3\na 0 1\nb 1 0\nc 1 1 0\n", "3\na 1 1\n",
		// Two repeated names: the reader reports the one repeated first.
		"4\nx 0 1 1 1\ny 1 0 1 1\ny 1 1 0 1\nx 1 1 1 0\n",
		// Prefix tokens: equal leading bytes, different values.
		"2\na 0 1\nb 12 0\n", "2\na 0 12\nb 1 0\n", "3\na 0 1 1\nb 1 0 1\nc 1 1 0",
		// Invalid UTF-8 and a NUL.
		"2\na\xff 0 1\nb 1 0\n", "2\na 0 1\xc2\nb 1\xc2 0\n", "2\na\x00 0 1\nb 1 0\n",
		// Old Mac line ends are one line.
		"2\ra 0 1\rb 1 0\r",
	)
	return out
}

// TestParseMatchesReference: on the FuzzParse seeds and a generated
// corpus, ParseString and Parse give referenceParse's names, matrix bits
// and error text.
func TestParseMatchesReference(t *testing.T) {
	corpus := append(parseSeeds(), referenceCorpus()...)
	for _, src := range corpus {
		if err := parseDiff(src); err != nil {
			t.Errorf("%v\ninput: %q", err, src)
		}
	}
	t.Logf("%d inputs", len(corpus))
}

// FuzzParseMatchesReference checks TestParseMatchesReference's property
// on arbitrary text.
func FuzzParseMatchesReference(f *testing.F) {
	for _, src := range parseSeeds() {
		f.Add(src)
	}
	f.Add("3\na\u00a00 1\u0085 2\nb 1 0 2\r\n# c\nc 2 2 0\n")
	f.Add("3\na\nb 1\nc 1 1\n")
	f.Add("2\na 0\nb 1 -0\n")
	f.Fuzz(func(t *testing.T, src string) {
		if err := parseDiff(src); err != nil {
			t.Fatalf("%v\ninput: %q", err, src)
		}
	})
}

// TestParseAlloc: parsing a full square allocates the same few objects
// at every n — no per-row or per-field allocation.
func TestParseAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var counts []float64
	for _, n := range []int{8, 20, 32} {
		src := PerturbedUltrametric(rng, n, 100, 0.8).String()
		counts = append(counts, testing.AllocsPerRun(50, func() {
			if _, err := ParseString(src); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if counts[0] != counts[1] || counts[1] != counts[2] || counts[0] > 8 {
		t.Fatalf("allocations at n = 8, 20, 32: %v; want the same few at every n", counts)
	}
}

// TestParseHostileHeaderAlloc: a header claiming 100000 species over a
// one-row text fails on the missing row without allocating for the rows
// it claims.
func TestParseHostileHeaderAlloc(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ParseString("100000\na 0\n")
	runtime.ReadMemStats(&after)
	if err == nil || err.Error() != "matrix: missing row 2: unexpected EOF" {
		t.Fatalf("err = %v, want the missing row 2 error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("allocated %d bytes, want under 1 MB", got)
	}
}

// TestParseCopiesNames: a parsed matrix keeps none of its text alive. Its
// names are copied out, so a cached tree that keeps them does not pin a
// whole request body.
func TestParseCopiesNames(t *testing.T) {
	parse := func() *Matrix {
		m, err := ParseString("# " + strings.Repeat("x", 8<<20) + "\n2\na 0 1\nb 1 0\n")
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := parse()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 4<<20 {
		t.Fatalf("heap grew by %d bytes while the matrix lives: it keeps its 8 MB text alive", grown)
	}
	runtime.KeepAlive(m)
}
