// Command perfbench is evotree's benchmark: one program that runs a named
// workload for a fixed time, checks every output it produced, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer split) as the
// last line of its standard output:
//
//	go run . --workload exact --seed 1 --seconds 10 --trace 0
//
// The workloads, and why each exists, are in workloads.go. All load comes
// from this one process: every search runs with two workers and at most two
// client goroutines drive it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workers is the search parallelism of every workload (pbb.Options.Workers,
// core.Options.Workers, web.Server.Workers): the machine the benchmark was
// tuned on has two CPUs.
const workers = 2

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// quick shrinks every workload to tiny inputs; the benchmark's own
	// tests use it to run every workload in a few seconds.
	quick bool
	// spansDir, when set, receives the traced run's span log.
	spansDir string
	// skewReference corrupts every reference cost after setup so that each
	// check fails; a test uses it to prove failures reach the result line.
	skewReference bool
}

func (c config) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what one run produces before it is printed: the result line
// plus the context line written above it.
type report struct {
	result
	record map[string]any
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printReport(os.Stdout, cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+workloadNames())
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; the inputs depend on nothing else")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured time per run")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer split")
	fs.StringVar(&cfg.spansDir, "spans", "", "directory for the traced run's span log")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if findWorkload(cfg.workload) == nil {
		return cfg, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, workloadNames())
	}
	if traceFlag != 0 && traceFlag != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if cfg.seconds <= 0 {
		return cfg, errors.New("--seconds must be positive")
	}
	cfg.trace = traceFlag == 1
	return cfg, nil
}

// run sets the workload up and measures it: untraced for the end-to-end
// metrics, or traced for the per-layer ones.
func run(cfg config) (*report, error) {
	w := findWorkload(cfg.workload)
	rep := &report{record: map[string]any{}}
	rep.Metrics = map[string]metric{}
	if cfg.trace {
		if err := w.traced(cfg, rep); err != nil {
			return nil, err
		}
	} else if err := w.measure(cfg, rep); err != nil {
		return nil, err
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	return rep, nil
}

// printReport writes the context line (environment, seed, sample counts,
// anything that is not a metric) and then the result line.
func printReport(out io.Writer, cfg config, rep *report) error {
	rec := map[string]any{
		"workload":   cfg.workload,
		"why":        findWorkload(cfg.workload).why,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"workers":    workers,
		"error_rate": errorRate(rep.result),
	}
	for k, v := range rep.record {
		rec[k] = v
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]any{"record": rec}); err != nil {
		return err
	}
	return enc.Encode(rep.result)
}

func errorRate(r result) float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// tally counts checked outputs and keeps the first few failures for the
// context line.
type tally struct {
	attempted, failed int64
	errs              []string
}

func (t *tally) check(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

func (t *tally) into(rep *report) {
	rep.Attempted += t.attempted
	rep.Failed += t.failed
	if len(t.errs) > 0 {
		rep.record["failures"] = t.errs
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setupRepeats is how many times a measured run sets its workload up; the
// reported setup_s is their median, so one slow setup does not move it.
const setupRepeats = 3

// timedSetup runs setup setupRepeats times, closes every session but the
// last, and returns the last with the median setup time in seconds. It
// then resets the peak-RSS mark, so the timed loop that follows sets it.
func timedSetup[S interface{ close() }](setup func() (S, error)) (S, float64, error) {
	var keep S
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		s, err := setup()
		if err != nil {
			return keep, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i > 0 {
			keep.close()
		}
		keep = s
	}
	if err := resetPeakRSS(); err != nil {
		keep.close()
		return keep, 0, err
	}
	return keep, median(secs), nil
}

// resetPeakRSS returns the freed setup heap to the OS and resets the
// process's resident-set high-water mark to its current RSS, so that
// peak_rss_mb measures the timed loop and not the setups before it.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}
