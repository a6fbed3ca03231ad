// Package experiments regenerates every table and figure of the papers'
// evaluation sections: the PaCT 2005 compact-set figures (8–13), the
// HPC-Asia 2005 parallel branch-and-bound figures (1–8), the NCS 2005
// grid-report tables (3–6), and the ablation studies DESIGN.md calls out.
// Each experiment is a named runner that produces a Figure — a small
// collection of labeled series — rendered as an aligned text table.
//
// The runners are deterministic given Config.Seed. Config.Quick shrinks the
// sweeps so the full suite finishes in seconds; the defaults reproduce the
// papers' ranges.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Series is one line of a figure: a name plus y-values aligned with the
// figure's x-values.
type Series struct {
	Name string
	Y    []float64
}

// Figure is the regenerated form of one paper table/figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Series []Series
	Notes  []string
}

// AddPoint appends y to the named series, creating it on first use. The
// caller is responsible for appending one point per X value in order.
func (f *Figure) AddPoint(series string, y float64) {
	for i := range f.Series {
		if f.Series[i].Name == series {
			f.Series[i].Y = append(f.Series[i].Y, y)
			return
		}
	}
	f.Series = append(f.Series, Series{Name: series, Y: []float64{y}})
}

// Note records a caption line rendered under the table.
func (f *Figure) Note(format string, args ...any) {
	f.Notes = append(f.Notes, fmt.Sprintf(format, args...))
}

// Render writes the figure as an aligned text table.
func (f *Figure) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s ===\n", f.ID, f.Title)
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	rows := [][]string{header}
	for i, x := range f.X {
		row := []string{formatNum(x)}
		for _, s := range f.Series {
			if i < len(s.Y) {
				row = append(row, formatNum(s.Y[i]))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for c, cell := range row {
			if len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	for ri, row := range rows {
		for c, cell := range row {
			if c > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[c], cell)
		}
		b.WriteByte('\n')
		if ri == 0 {
			total := 0
			for _, wd := range widths {
				total += wd + 2
			}
			b.WriteString(strings.Repeat("-", total-2))
			b.WriteByte('\n')
		}
	}
	if f.YLabel != "" {
		fmt.Fprintf(&b, "(values: %s)\n", f.YLabel)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

func formatNum(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e15 && v > -1e15:
		return fmt.Sprintf("%d", int64(v))
	case v >= 100 || v <= -100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// Config parameterizes all runners.
type Config struct {
	Seed    int64
	Workers int  // parallel workers for real (goroutine) runs
	Quick   bool // shrink sweeps for tests and -short benchmarks
	// BenchOut, when non-empty, makes the frontier experiment write its
	// machine-readable report to this path. Empty means no file is
	// written, which keeps test runs side-effect free.
	BenchOut string
}

// Runner regenerates one figure.
type Runner func(cfg Config) (*Figure, error)

var registry = map[string]Runner{}
var registryOrder []string

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate runner " + id)
	}
	registry[id] = r
	registryOrder = append(registryOrder, id)
}

// Lookup returns the runner for id.
func Lookup(id string) (Runner, bool) {
	r, ok := registry[id]
	return r, ok
}

// IDs lists every registered experiment in registration order.
func IDs() []string {
	out := append([]string(nil), registryOrder...)
	sort.Strings(out)
	return out
}

// CSV writes the figure as a machine-readable table: a comment header
// with the metadata, then one row per x value.
func (f *Figure) CSV(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s\n", f.ID, f.Title)
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "# note: %s\n", n)
	}
	b.WriteString(csvEscape(f.XLabel))
	for _, s := range f.Series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Name))
	}
	b.WriteByte('\n')
	for i, x := range f.X {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range f.Series {
			b.WriteByte(',')
			if i < len(s.Y) {
				fmt.Fprintf(&b, "%g", s.Y[i])
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
