package main

import (
	"strings"
	"time"
)

// workload is one named set of inputs and the loop that drives it. The
// inputs are generated from the seed alone.
type workload struct {
	name string
	// why records what the workload is for: which layers it stresses and
	// which it leaves alone. BENCHMARK.json carries the same sentence.
	why string
	// measure sets the workload up, runs it untraced for the configured
	// time, checks every output and fills in the end-to-end metrics.
	measure func(cfg config, rep *report) error
	// traced sets the workload up, alternates untraced and traced slices
	// of the same loop, and fills in the per-layer metrics.
	traced func(cfg config, rep *report) error
}

var workloads = []*workload{
	{
		name: "exact",
		why: "Whole-matrix exact search (pbb, 2 workers) on a seeded perturbed-clock and uniform batch: " +
			"the bb kernel and pbb scheduler do almost all the work; compact and web do none.",
		measure: func(cfg config, rep *report) error { return measureExact(cfg, rep, false) },
		traced:  func(cfg config, rep *report) error { return tracedExact(cfg, rep, false) },
	},
	{
		name: "exact-strong",
		why: "The exact batch plus planted twins under bb.StrongOptions: the only workload where " +
			"PropagatedLB and twin dominance run, so a propagation change moves it and not exact.",
		measure: func(cfg config, rep *report) error { return measureExact(cfg, rep, true) },
		traced:  func(cfg config, rep *report) error { return tracedExact(cfg, rep, true) },
	},
	{
		name: "decompose",
		why: "The paper's pipeline core.Construct on seqsim mtDNA-like matrices, n=400-600: " +
			"compact-set detection dominates, about 200 tiny subproblems, B&B under 10%.",
		measure: measureDecompose,
		traced:  tracedDecompose,
	},
	{
		name: "service",
		why: "Closed loop of 2 HTTP clients on web.Server: 3/4 permuted copies served from the cache, " +
			"1/4 fresh n<=32 solves; fingerprint, cache, JSON and tree encoding dominate.",
		measure: measureService,
		traced:  tracedService,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// End-to-end metric names and units, shared by every workload.
const (
	mSetup      = "setup_s"
	mThroughput = "solves_per_s"
	mP50        = "latency_p50_ms"
	mP90        = "latency_p90_ms"
	mRSS        = "peak_rss_mb"
)

// endToEnd fills in the end-to-end metrics from one measured window: the
// latencies of its completed solves (or responses), the throughput of each
// of its slices (passes over a batch, or fixed-length slices of a closed
// loop), whose median is reported so that a burst of interference in one
// slice does not move it, and the window's wall time; plus the median setup
// time and the peak RSS since timedSetup reset it.
func endToEnd(rep *report, setupS float64, lat []time.Duration, rates []float64, wall time.Duration) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	msLat := make([]float64, len(lat))
	for i, d := range lat {
		msLat[i] = ms(d)
	}
	rep.Metrics[mSetup] = metric{setupS, "s"}
	rep.Metrics[mThroughput] = metric{median(rates), "1/s"}
	rep.Metrics[mP50] = metric{quantile(msLat, 0.50), "ms"}
	rep.Metrics[mP90] = metric{quantile(msLat, 0.90), "ms"}
	rep.Metrics[mRSS] = metric{rss, "MB"}
	rep.record["latency_samples"] = len(lat)
	rep.record["measured_s"] = wall.Seconds()
	rep.record["slices"] = len(rates)
	return nil
}

// solved is one timed call of a batch workload.
type solved[T any] struct {
	item int
	lat  time.Duration
	out  T
	err  error
}

// passes drives a batch workload as a closed loop with one client: it
// solves items 0..n-1 in order, in whole passes, until d of measured time
// has passed. Whole passes keep every item equally represented in the
// latency sample, however the time falls. After each pass, off the clock,
// done receives the pass's calls, which are then dropped: the loop holds
// one pass of outputs at a time, so its memory does not grow with its
// speed. It returns every call's latency, each pass's throughput, and the
// measured time.
func passes[T any](n int, d time.Duration, solve func(i int) (T, error), done func([]solved[T])) ([]time.Duration, []float64, time.Duration) {
	var lat []time.Duration
	var rates []float64
	var measured time.Duration
	pass := make([]solved[T], n)
	for {
		passStart := time.Now()
		for i := 0; i < n; i++ {
			t0 := time.Now()
			o, err := solve(i)
			pass[i] = solved[T]{item: i, lat: time.Since(t0), out: o, err: err}
		}
		wall := time.Since(passStart)
		measured += wall
		rates = append(rates, float64(n)/wall.Seconds())
		for _, r := range pass {
			lat = append(lat, r.lat)
		}
		done(pass)
		clear(pass)
		if measured >= d {
			return lat, rates, measured
		}
	}
}

// checkAll checks every call's output into t. Called from passes' done,
// it runs between passes, so checking costs no measured time.
func checkAll[T any](runs []solved[T], check func(i int, out T) error, t *tally) {
	for _, r := range runs {
		if r.err != nil {
			t.check(r.err)
			continue
		}
		t.check(check(r.item, r.out))
	}
}

// overheadSlices is how many untraced/traced slice pairs a traced run
// alternates, so drift over the run affects both sides alike.
const overheadSlices = 3

// alternate runs overheadSlices pairs of untraced and traced slices of a
// batch workload's loop, together lasting d, checks every output into t,
// and hands each untraced call to plainDone (when not nil). It returns the
// tracing overhead: traced over untraced wall time per call.
func alternate[T any](n int, d time.Duration, plain, traced func(i int) (T, error),
	check func(i int, out T) error, t *tally, plainDone func(solved[T])) float64 {
	var plainWall, tracedWall time.Duration
	plainCalls, tracedCalls := 0, 0
	slice := d / (2 * overheadSlices)
	for k := 0; k < overheadSlices; k++ {
		lat, _, wall := passes(n, slice, plain, func(runs []solved[T]) {
			checkAll(runs, check, t)
			if plainDone == nil {
				return
			}
			for _, r := range runs {
				plainDone(r)
			}
		})
		plainWall += wall
		plainCalls += len(lat)
		lat, _, wall = passes(n, slice, traced, func(runs []solved[T]) { checkAll(runs, check, t) })
		tracedWall += wall
		tracedCalls += len(lat)
	}
	return overheadRatio(tracedWall, tracedCalls, plainWall, plainCalls)
}

// overheadRatio is traced over untraced wall time per call.
func overheadRatio(tracedWall time.Duration, tracedCalls int, plainWall time.Duration, plainCalls int) float64 {
	return ratio(tracedWall.Seconds()/float64(tracedCalls), plainWall.Seconds()/float64(plainCalls))
}
