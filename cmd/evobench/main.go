// Command evobench regenerates the papers' tables and figures. Each
// experiment id corresponds to one figure/table of the evaluation sections
// (see DESIGN.md §4 for the index).
//
// Usage:
//
//	evobench -list                 # show every experiment id
//	evobench -fig pact8            # regenerate PaCT'05 Figure 8
//	evobench -fig all              # the whole evaluation
//	evobench -fig par3 -quick      # shrunken sweep for a fast look
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"evotree/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "evobench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("evobench", flag.ContinueOnError)
	var (
		fig     = fs.String("fig", "", "experiment id, comma list, or 'all'")
		list    = fs.Bool("list", false, "list experiment ids and exit")
		seed    = fs.Int64("seed", 2005, "workload RNG seed")
		workers = fs.Int("workers", 4, "goroutine workers for real parallel runs")
		quick   = fs.Bool("quick", false, "shrink sweeps for a fast run")
		csv     = fs.Bool("csv", false, "emit CSV instead of aligned text tables")
	)
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return nil
	}
	if *fig == "" {
		fs.Usage()
		return fmt.Errorf("pick an experiment with -fig (or -list)")
	}
	cfg := experiments.Config{Seed: *seed, Workers: *workers, Quick: *quick}
	ids := experiments.IDs()
	if *fig != "all" {
		ids = strings.Split(*fig, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		r, ok := experiments.Lookup(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", id)
		}
		f, err := r(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if *csv {
			if err := f.CSV(stdout); err != nil {
				return err
			}
			continue
		}
		if err := f.Render(stdout); err != nil {
			return err
		}
	}
	return nil
}
