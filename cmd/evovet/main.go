// Command evovet runs the project's static-analysis suite
// (internal/analysis): ctxthread, atomicmix, probeguard, unsafeslab,
// wirestrict, kindswitch, onestep, plus validation of //evovet:ignore
// suppressions.
//
// Two modes:
//
// Standalone, over packages selected by go list patterns (test files are
// not analyzed in this mode):
//
//	evovet ./...
//	evovet -analyzers ctxthread,probeguard ./internal/...
//
// As a vet tool, which also covers test variants of each package:
//
//	go vet -vettool=$(command -v evovet) ./...
//
// Exit status: 0 clean, 1 findings (standalone), 2 findings or protocol
// error (vet-tool mode, per the cmd/vet convention), 3 usage/load error.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"evotree/internal/analysis"
)

func main() {
	// cmd/go probes the tool's identity with -V=full before anything
	// else, and passes a single *.cfg argument per package afterwards.
	if len(os.Args) == 2 && strings.HasPrefix(os.Args[1], "-V") {
		printVersion()
		return
	}
	// cmd/go also asks which analyzer flags the tool accepts so it can
	// forward `go vet -<analyzer>` selections; this suite always runs
	// whole, so the answer is "none".
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		fmt.Println("[]")
		return
	}
	if len(os.Args) == 2 && strings.HasSuffix(os.Args[1], ".cfg") {
		os.Exit(unitcheckerMain(os.Args[1]))
	}

	list := flag.Bool("list", false, "list analyzers and exit")
	names := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	dir := flag.String("C", ".", "change to `dir` before loading packages")
	flag.Parse()

	if *list {
		for _, an := range analysis.Suite() {
			fmt.Printf("%-12s %s\n", an.Name, an.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evovet:", err)
		os.Exit(3)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.LoadPackages(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evovet:", err)
		os.Exit(3)
	}

	found := false
	for _, pkg := range pkgs {
		diags, err := analysis.Check(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "evovet:", err)
			os.Exit(3)
		}
		for _, d := range diags {
			found = true
			fmt.Printf("%s: %s: %s\n", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
	if found {
		os.Exit(1)
	}
}

// selectAnalyzers resolves the -analyzers flag against the suite.
func selectAnalyzers(names string) ([]*analysis.Analyzer, error) {
	suite := analysis.Suite()
	if names == "" {
		return suite, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(suite))
	for _, an := range suite {
		byName[an.Name] = an
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(names, ",") {
		an, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, an)
	}
	return out, nil
}

// printVersion emits the tool identity cmd/go uses as a cache key: the
// content hash of the executable itself, so rebuilding evovet after an
// analyzer change invalidates stale vet results.
func printVersion() {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("evovet version devel buildID=%x\n", h.Sum(nil)[:16])
}
