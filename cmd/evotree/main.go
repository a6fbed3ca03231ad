// Command evotree constructs evolutionary trees from distance matrices.
//
// It reads a matrix in the PHYLIP-like format of internal/matrix (first
// line: species count; then one "name d1 ... dn" row per species) from a
// file or stdin, builds a tree with the selected algorithm, and prints the
// result as Newick plus a summary.
//
// Usage:
//
//	evotree [flags] [matrix-file]
//
// Algorithms (-algo):
//
//	compact  compact-set decomposition + branch-and-bound (the paper; default)
//	bb       sequential exact branch-and-bound (Algorithm BBU)
//	pbb      parallel exact branch-and-bound (master/slave over goroutines)
//	dist     distributed exact branch-and-bound (coordinator/worker farm)
//	upgma    average-linkage heuristic
//	upgmm    maximum-linkage heuristic (always feasible)
//	nj       neighbor joining (additive, not ultrametric)
//
// With -algo dist the coordinator spawns -workers localhost worker
// goroutines talking real HTTP by default; -dist-listen ADDR instead
// serves the farm API on ADDR and waits for external evoworker processes,
// which must come from the same build. The farm searches the whole
// matrix; -max-nodes caps its expansions in total.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"evotree/internal/bb"
	"evotree/internal/bootstrap"
	"evotree/internal/compact"
	"evotree/internal/core"
	"evotree/internal/dist"
	"evotree/internal/matrix"
	"evotree/internal/nj"
	"evotree/internal/obs"
	"evotree/internal/pbb"
	"evotree/internal/seqsim"
	"evotree/internal/tree"
	"evotree/internal/upgma"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "evotree:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("evotree", flag.ContinueOnError)
	var (
		algo      = fs.String("algo", "compact", "algorithm: compact|bb|pbb|dist|upgma|upgmm|nj")
		workers   = fs.Int("workers", 4, "computing nodes for parallel runs")
		distAddr  = fs.String("dist-listen", "", "with -algo dist: serve the farm API on this address for external evoworker processes instead of spawning localhost workers")
		threeT    = fs.Bool("33", false, "apply the 3-3 relationship at the third species")
		threeTAll = fs.Bool("33all", false, "apply the generalized per-insertion 3-3 filter")
		propagate = fs.Bool("propagate", false, "re-bound popped nodes with the incremental ultrametric propagation bound (exact)")
		noMaxMin  = fs.Bool("no-maxmin", false, "disable the max-min species relabeling")
		reduction = fs.String("reduction", "maximum", "group distance rule: maximum|minimum|average")
		maxNodes  = fs.Int64("max-nodes", 0, "abort the search after this many expansions (0 = unlimited)")
		timeout   = fs.Duration("timeout", 0, "abort the search after this long (0 = unlimited)")
		fasta     = fs.Bool("fasta", false, "input is aligned FASTA sequences instead of a matrix")
		boot      = fs.Int("bootstrap", 0, "with -fasta: bootstrap replicates for clade support (0 = off)")
		ascii     = fs.Bool("ascii", false, "also print a text dendrogram")
		showSets  = fs.Bool("sets", false, "print the detected compact sets")
		showStats = fs.Bool("stats", false, "print search statistics")
		quiet     = fs.Bool("q", false, "print only the Newick tree")
		progress  = fs.Bool("progress", false, "print live UB-convergence and gap lines (seed bound, improvements, phases) to stderr")
		trace     = fs.Bool("trace", false, "print every search event (implies -progress; adds pool/worker traffic) to stderr")
		gap       = fs.Duration("gap", 0, "optimality-gap sample period (0 = 1s when -progress/-trace, else off; negative disables)")
		flight    = fs.String("flight", "", "write a flight-recorder JSON dump of the search's event history to this file on exit")
	)
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}

	in := stdin
	name := "stdin"
	if fs.NArg() > 1 {
		return fmt.Errorf("at most one matrix file, got %d args", fs.NArg())
	}
	if fs.NArg() == 1 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in, name = f, fs.Arg(0)
	}
	var m *matrix.Matrix
	var records []seqsim.Record
	if *fasta {
		var err error
		records, err = seqsim.ReadFASTA(in)
		if err != nil {
			return fmt.Errorf("reading %s: %w", name, err)
		}
		m, err = seqsim.MatrixFromSequences(records)
		if err != nil {
			return err
		}
	} else {
		var err error
		m, err = matrix.Parse(in)
		if err != nil {
			return fmt.Errorf("reading %s: %w", name, err)
		}
	}
	if m.Len() == 0 {
		return fmt.Errorf("%s: empty matrix", name)
	}

	progressOn := *trace || *progress
	var probes []obs.Probe
	if progressOn {
		// UB-convergence events log at Info, pool/worker traffic at
		// Debug; -trace opens the Debug level, -progress stops at Info.
		level := slog.LevelInfo
		if *trace {
			level = slog.LevelDebug
		}
		probes = append(probes, obs.NewTracer(slog.New(slog.NewTextHandler(stderr,
			&slog.HandlerOptions{Level: level}))))
	}
	var rec *obs.Recorder
	if *flight != "" {
		rec = obs.NewRecorder(16, 256)
		probes = append(probes, rec)
		// Deferred so the dump survives error returns: a truncated or
		// failed search is exactly when the recorded history matters.
		defer func() {
			f, err := os.Create(*flight)
			if err != nil {
				fmt.Fprintln(stderr, "evotree: flight dump:", err)
				return
			}
			defer f.Close()
			if err := rec.WriteJSON(f); err != nil {
				fmt.Fprintln(stderr, "evotree: flight dump:", err)
			}
		}()
	}
	probe := obs.Multi(probes...)
	gapPeriod := *gap
	if gapPeriod == 0 && progressOn {
		gapPeriod = time.Second
	}
	if gapPeriod < 0 {
		gapPeriod = 0
	}

	bbOpt := bb.Options{
		UseMaxMin: !*noMaxMin,
		Constraints: bb.Constraints{
			ThreeThree:    *threeT,
			ThreeThreeAll: *threeTAll,
		},
		Propagate: *propagate,
		MaxNodes:  *maxNodes,
		Probe:     probe,
		GapPeriod: gapPeriod,
	}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		bbOpt.Ctx = ctx
	}

	if *boot > 0 {
		if !*fasta {
			return fmt.Errorf("-bootstrap requires -fasta input (columns are resampled)")
		}
		return runBootstrap(stdout, records, *algo, *reduction, *workers, *boot, bbOpt)
	}

	switch strings.ToLower(*algo) {
	case "nj":
		t, err := nj.Build(m)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# neighbor joining, %d species, total length %.4f\n",
			m.Len(), t.TotalLength())
		fmt.Fprintln(stdout, njNewick(t, m))
		return nil
	case "upgma", "upgmm":
		link := upgma.Average
		if *algo == "upgmm" {
			link = upgma.Maximum
		}
		t := upgma.Build(m, link)
		t.SetNames(m.Names())
		if !*quiet {
			fmt.Fprintf(stdout, "# %s, %d species, cost %.4f, feasible=%v\n",
				*algo, m.Len(), t.Cost(), t.Feasible(m, 1e-9))
		}
		if *ascii {
			fmt.Fprint(stdout, t.Ascii())
		}
		fmt.Fprintln(stdout, t.Newick())
		return nil
	case "bb":
		res, err := bb.Solve(m, bbOpt)
		if err != nil {
			return err
		}
		if progressOn {
			printSearchSummary(stderr, res.Stats, pbb.SchedStats{})
		}
		return printResult(stdout, m, res.Tree, res.Cost, res.Optimal, res.Stats, nil, *quiet, *showStats, *showSets, *ascii)
	case "pbb":
		res, err := pbb.Solve(m, pbb.Options{Options: bbOpt, Workers: *workers, InitialFanout: 2})
		if err != nil {
			return err
		}
		if progressOn {
			printSearchSummary(stderr, res.Stats, res.Sched)
		}
		return printResult(stdout, m, res.Tree, res.Cost, res.Optimal, res.Stats, nil, *quiet, *showStats, *showSets, *ascii)
	case "dist":
		opt := dist.Options{Workers: *workers, BB: bbOpt}
		var res *dist.Result
		var err error
		if *distAddr != "" {
			res, err = serveCoordinator(stderr, m, opt, *distAddr)
		} else {
			res, err = dist.Solve(m, opt)
		}
		if err != nil {
			return err
		}
		if progressOn {
			printSearchSummary(stderr, res.Stats, pbb.SchedStats{})
		}
		if *showStats {
			fmt.Fprintf(stdout, "# farm: units=%d done=%d dispatches=%d requeues=%d stale=%d broadcasts=%d workers=%d\n",
				res.Farm.Units, res.Farm.Done, res.Farm.Dispatches, res.Farm.Requeues,
				res.Farm.Stale, res.Farm.Broadcasts, len(res.Farm.Workers))
		}
		return printResult(stdout, m, res.Tree, res.Cost, res.Optimal, res.Stats, nil, *quiet, *showStats, *showSets, *ascii)
	case "compact":
		red, err := compact.ParseReduction(*reduction)
		if err != nil {
			return err
		}
		opt := core.Options{UseCompactSets: true, Reduction: red, Workers: *workers, BB: bbOpt, Probe: probe}
		res, err := core.Construct(m, opt)
		if err != nil {
			return err
		}
		if progressOn {
			printSearchSummary(stderr, res.Stats, pbb.SchedStats{})
		}
		return printResult(stdout, m, res.Tree, res.Cost, res.Optimal, res.Stats, res.CompactSets, *quiet, *showStats, *showSets, *ascii)
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}
}

func printResult(w io.Writer, m *matrix.Matrix, t *tree.Tree, cost float64,
	optimal bool, stats bb.Stats, sets []compact.Set, quiet, showStats, showSets, ascii bool) error {
	if !quiet {
		fmt.Fprintf(w, "# %d species, tree cost %.4f, search complete=%v\n", m.Len(), cost, optimal)
	}
	if showSets {
		if len(sets) == 0 {
			fmt.Fprintln(w, "# no non-trivial compact sets")
		}
		for _, s := range sets {
			names := make([]string, len(s))
			for i, v := range s {
				names[i] = m.Name(v)
			}
			fmt.Fprintf(w, "# compact set: {%s}\n", strings.Join(names, ", "))
		}
	}
	if showStats {
		fmt.Fprintf(w, "# expanded=%d generated=%d pruned=%d solutions=%d ub-updates=%d max-pool=%d\n",
			stats.Expanded, stats.Generated, stats.Pruned.Total(), stats.Solutions,
			stats.UBUpdates, stats.MaxPoolLen)
		fmt.Fprintf(w, "# pruned-by-rule: bound=%d incumbent=%d threethree=%d constraint=%d ultrametric=%d budget=%d\n",
			stats.Pruned.Bound, stats.Pruned.Incumbent, stats.Pruned.ThreeThree,
			stats.Pruned.Constraint, stats.Pruned.Ultrametric, stats.Pruned.Budget)
	}
	if ascii {
		fmt.Fprint(w, t.Ascii())
	}
	_, err := fmt.Fprintln(w, t.Newick())
	return err
}

// printSearchSummary is the -progress terminal line: one stderr line with
// the node totals, scheduler traffic, and per-rule prune attribution, so a
// progress run ends with the search's whole story even without -trace.
func printSearchSummary(w io.Writer, stats bb.Stats, sched pbb.SchedStats) {
	fmt.Fprintf(w,
		"search summary: nodes=%d generated=%d completed=%d solutions=%d steals=%d parks=%d donates=%d pruned[bound=%d incumbent=%d threethree=%d constraint=%d ultrametric=%d budget=%d]\n",
		stats.Expanded, stats.Generated, stats.Completed, stats.Solutions,
		sched.Steals, sched.Parks, sched.Donates,
		stats.Pruned.Bound, stats.Pruned.Incumbent, stats.Pruned.ThreeThree,
		stats.Pruned.Constraint, stats.Pruned.Ultrametric, stats.Pruned.Budget)
}

// serveCoordinator runs the -dist-listen coordinator mode: it serves the
// farm's HTTP API on addr, announces the join URL on stderr, and blocks
// until external evoworker processes have drained every unit (or the
// -timeout context cancels the farm).
func serveCoordinator(stderr io.Writer, m *matrix.Matrix, opt dist.Options, addr string) (*dist.Result, error) {
	c, err := dist.NewCoordinator(m, opt)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: c.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	fmt.Fprintf(stderr, "dist coordinator: job %s, %d units, serving on http://%s\n",
		c.Job(), c.Units(), ln.Addr())
	fmt.Fprintf(stderr, "join with: evoworker -url http://%s\n", ln.Addr())
	ctx := context.Background()
	if opt.BB.Ctx != nil {
		ctx = opt.BB.Ctx
	}
	return c.Wait(ctx)
}

// runBootstrap resamples the alignment and prints the reference tree with
// bootstrap support labels.
func runBootstrap(w io.Writer, records []seqsim.Record, algo, reduction string,
	workers, replicates int, bbOpt bb.Options) error {
	var build bootstrap.Builder
	switch strings.ToLower(algo) {
	case "upgma", "upgmm":
		link := upgma.Average
		if algo == "upgmm" {
			link = upgma.Maximum
		}
		build = func(m *matrix.Matrix) (*tree.Tree, error) {
			t := upgma.Build(m, link)
			t.SetNames(m.Names())
			return t, nil
		}
	case "compact":
		red, err := compact.ParseReduction(reduction)
		if err != nil {
			return err
		}
		build = func(m *matrix.Matrix) (*tree.Tree, error) {
			res, err := core.Construct(m, core.Options{
				UseCompactSets: true, Reduction: red, Workers: workers, BB: bbOpt,
			})
			if err != nil {
				return nil, err
			}
			return res.Tree, nil
		}
	case "bb", "pbb":
		build = func(m *matrix.Matrix) (*tree.Tree, error) {
			res, err := bb.Solve(m, bbOpt)
			if err != nil {
				return nil, err
			}
			return res.Tree, nil
		}
	default:
		return fmt.Errorf("algorithm %q does not support bootstrapping", algo)
	}
	res, err := bootstrap.Run(records, build, bootstrap.Options{Replicates: replicates})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# bootstrap: %d replicates, mean clade support %.0f%%\n",
		res.Replicates, 100*res.MeanSupport())
	_, err = fmt.Fprintln(w, res.Annotated())
	return err
}

// njNewick renders the (non-ultrametric) NJ tree in Newick format.
func njNewick(t *nj.Tree, m *matrix.Matrix) string {
	var b strings.Builder
	var walk func(id int)
	walk = func(id int) {
		n := t.Nodes[id]
		if n.Species >= 0 {
			b.WriteString(m.Name(n.Species))
		} else {
			b.WriteByte('(')
			walk(n.Left)
			b.WriteByte(',')
			walk(n.Right)
			b.WriteByte(')')
		}
		if n.Parent != nj.NoNode {
			fmt.Fprintf(&b, ":%g", n.EdgeLen)
		}
	}
	walk(t.Root)
	b.WriteByte(';')
	return b.String()
}
