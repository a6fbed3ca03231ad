package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"evotree/internal/dist"
	"evotree/internal/matrix"
)

const sample = `4
a 0 2 8 8
b 2 0 8 8
c 8 8 0 4
d 8 8 4 0
`

func runCLI(t *testing.T, stdin string, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, strings.NewReader(stdin), &out, io.Discard); err != nil {
		t.Fatalf("run(%v): %v\n%s", args, err, out.String())
	}
	return out.String()
}

func TestAlgorithms(t *testing.T) {
	for _, algo := range []string{"compact", "bb", "pbb", "upgma", "upgmm", "nj"} {
		out := runCLI(t, sample, "-algo", algo)
		if !strings.Contains(out, ";") {
			t.Fatalf("%s: no Newick in output:\n%s", algo, out)
		}
		if algo != "nj" && !strings.Contains(out, "cost") {
			t.Fatalf("%s: no cost line:\n%s", algo, out)
		}
	}
}

func TestExactAlgorithmsAgree(t *testing.T) {
	bbOut := runCLI(t, sample, "-algo", "bb", "-q")
	pbbOut := runCLI(t, sample, "-algo", "pbb", "-q", "-workers", "3")
	// Same cost is guaranteed; same tree string is expected for this
	// simple instance.
	if bbOut == "" || pbbOut == "" {
		t.Fatal("empty outputs")
	}
}

func TestCompactSetsFlag(t *testing.T) {
	out := runCLI(t, sample, "-algo", "compact", "-sets")
	if !strings.Contains(out, "compact set: {a, b}") {
		t.Fatalf("missing compact set {a,b}:\n%s", out)
	}
	if !strings.Contains(out, "compact set: {c, d}") {
		t.Fatalf("missing compact set {c,d}:\n%s", out)
	}
}

func TestStatsFlag(t *testing.T) {
	out := runCLI(t, sample, "-algo", "bb", "-stats")
	if !strings.Contains(out, "expanded=") {
		t.Fatalf("missing stats:\n%s", out)
	}
}

func TestFileInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.dist")
	if err := os.WriteFile(path, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-algo", "upgmm", path}, strings.NewReader(""), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), ";") {
		t.Fatal("no tree from file input")
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{"-algo", "nope"},
		{"a", "b"}, // two positional args
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, strings.NewReader(sample), &out, io.Discard); err == nil {
			t.Errorf("want error for %v", args)
		}
	}
	var out bytes.Buffer
	if err := run(nil, strings.NewReader("garbage"), &out, io.Discard); err == nil {
		t.Error("want error for bad matrix")
	}
	if err := run([]string{"/no/such/file.dist"}, strings.NewReader(""), &out, io.Discard); err == nil {
		t.Error("want error for missing file")
	}
}

func TestReductionFlag(t *testing.T) {
	for _, red := range []string{"maximum", "minimum", "average"} {
		out := runCLI(t, sample, "-algo", "compact", "-reduction", red)
		if !strings.Contains(out, ";") {
			t.Fatalf("%s: no tree", red)
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-algo", "compact", "-reduction", "median"},
		strings.NewReader(sample), &out, io.Discard); err == nil {
		t.Fatal("want error for unknown reduction")
	}
}

func TestThreeThreeFlags(t *testing.T) {
	out := runCLI(t, sample, "-algo", "bb", "-33", "-33all", "-no-maxmin")
	if !strings.Contains(out, ";") {
		t.Fatal("no tree with 3-3 flags")
	}
}

func TestAsciiFlag(t *testing.T) {
	out := runCLI(t, sample, "-algo", "compact", "-ascii")
	if !strings.Contains(out, "└─ ") {
		t.Fatalf("missing dendrogram:\n%s", out)
	}
}

func TestFastaInput(t *testing.T) {
	fasta := ">x\nACGTACGT\n>y\nACGTACGA\n>z\nTTTTACGT\n"
	out := runCLI(t, fasta, "-fasta", "-algo", "upgmm")
	if !strings.Contains(out, "x") || !strings.Contains(out, ";") {
		t.Fatalf("fasta input failed:\n%s", out)
	}
	var buf bytes.Buffer
	if err := run([]string{"-fasta"}, strings.NewReader("not fasta"), &buf, io.Discard); err == nil {
		t.Fatal("want error for malformed FASTA")
	}
}

func TestTimeoutFlag(t *testing.T) {
	// A zero-duration timeout context cancels immediately; the search
	// must still return the incumbent and not claim completeness.
	out := runCLI(t, sample, "-algo", "bb", "-timeout", "1ns")
	if !strings.Contains(out, ";") {
		t.Fatalf("no tree under timeout:\n%s", out)
	}
}

// TestMaxNodesReportsIncompleteSearch: a search that -max-nodes cuts
// short must say so on the summary line, on the decomposition pipeline as
// on the plain branch-and-bound.
func TestMaxNodesReportsIncompleteSearch(t *testing.T) {
	var in strings.Builder
	if err := matrix.Random0100(rand.New(rand.NewSource(3)), 12).Write(&in); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"compact", "bb"} {
		out := runCLI(t, in.String(), "-algo", algo, "-max-nodes", "1", "-stats")
		if !strings.Contains(out, "search complete=false") {
			t.Errorf("%s: a search cut at one node reports itself complete:\n%s", algo, out)
		}
	}
}

func TestTraceFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-algo", "bb", "-trace"}, strings.NewReader(sample), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	trace := errOut.String()
	for _, want := range []string{"seed_bound", "problem_start", "problem_finish",
		"ub=", "worker=", "elapsed="} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace missing %q:\n%s", want, trace)
		}
	}
	if !strings.Contains(out.String(), ";") {
		t.Fatal("no Newick on stdout under -trace")
	}

	// -progress shows the convergence lines but hides pool/worker
	// traffic; on pbb the worker lifecycle is Debug-only.
	errOut.Reset()
	out.Reset()
	if err := run([]string{"-algo", "pbb", "-workers", "3", "-progress"},
		strings.NewReader(sample), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if s := errOut.String(); !strings.Contains(s, "seed_bound") || strings.Contains(s, "worker_start") {
		t.Errorf("-progress output wrong:\n%s", s)
	}
}

func TestDistAlgo(t *testing.T) {
	bbOut := runCLI(t, sample, "-algo", "bb", "-q")
	out := runCLI(t, sample, "-algo", "dist", "-workers", "2", "-stats")
	if !strings.Contains(out, ";") {
		t.Fatalf("no Newick:\n%s", out)
	}
	if !strings.Contains(out, "search complete=true") {
		t.Fatalf("farm did not prove completeness:\n%s", out)
	}
	if !strings.Contains(out, "# farm: units=") {
		t.Fatalf("missing farm stats line:\n%s", out)
	}
	// Exact engines on an ultrametric instance agree on the tree.
	if lines := strings.Split(strings.TrimSpace(out), "\n"); lines[len(lines)-1] != strings.TrimSpace(bbOut) {
		t.Fatalf("dist tree %q != bb tree %q", lines[len(lines)-1], strings.TrimSpace(bbOut))
	}
}

// syncBuf is a mutex-guarded writer so the test can poll stderr while
// run() is still writing to it from another goroutine.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestDistListenMode(t *testing.T) {
	// Coordinator-only mode: evotree serves the farm API and blocks until
	// an external worker (played here by dist.RunWorker against the
	// announced URL) drains every unit. The 4-species sample would be
	// solved during slicing and never serve a unit, so use a random
	// instance big enough to leave real work on the queue.
	m := matrix.Random0100(rand.New(rand.NewSource(43)), 10)
	var in strings.Builder
	fmt.Fprintf(&in, "%d\n", m.Len())
	for i := 0; i < m.Len(); i++ {
		in.WriteString(m.Name(i))
		for j := 0; j < m.Len(); j++ {
			fmt.Fprintf(&in, " %g", m.At(i, j))
		}
		in.WriteByte('\n')
	}

	var out bytes.Buffer
	errBuf := &syncBuf{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-algo", "dist", "-dist-listen", "127.0.0.1:0"},
			strings.NewReader(in.String()), &out, errBuf)
	}()

	urlRe := regexp.MustCompile(`join with: evoworker -url (http://\S+)`)
	var url string
	deadline := time.Now().Add(10 * time.Second)
	for url == "" {
		if m := urlRe.FindStringSubmatch(errBuf.String()); m != nil {
			url = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("coordinator never announced its URL:\n%s", errBuf.String())
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- dist.RunWorker(ctx, url, dist.WorkerOptions{Name: "ext", Poll: time.Millisecond})
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The coordinator exits as soon as the proof is in and takes its
	// server with it; a still-polling worker is stopped by cancellation,
	// exactly how solveFarm tears down its own worker goroutines.
	cancel()
	if err := <-workerDone; err != nil && err != context.Canceled {
		t.Fatalf("external worker: %v", err)
	}
	if !strings.Contains(out.String(), "search complete=true") || !strings.Contains(out.String(), ";") {
		t.Fatalf("listen-mode farm output wrong:\n%s", out.String())
	}
}

func TestBootstrapFlag(t *testing.T) {
	fasta := ">a\nAAAAAAAAAA\n>b\nAAAAAAAACC\n>c\nTTTTTTTTTT\n>d\nTTTTTTTTGG\n"
	out := runCLI(t, fasta, "-fasta", "-bootstrap", "25", "-algo", "upgmm")
	if !strings.Contains(out, "bootstrap: 25 replicates") {
		t.Fatalf("missing bootstrap summary:\n%s", out)
	}
	if !strings.Contains(out, ")100:") {
		t.Fatalf("clean split should reach 100%% support:\n%s", out)
	}
	// Bootstrap without FASTA is rejected.
	var buf bytes.Buffer
	if err := run([]string{"-bootstrap", "5"}, strings.NewReader(sample), &buf, io.Discard); err == nil {
		t.Fatal("want error for -bootstrap without -fasta")
	}
	// Unsupported algorithm.
	if err := run([]string{"-fasta", "-bootstrap", "5", "-algo", "nj"},
		strings.NewReader(fasta), &buf, io.Discard); err == nil {
		t.Fatal("want error for nj bootstrap")
	}
}
