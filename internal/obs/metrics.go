package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them in the Prometheus text
// exposition format (version 0.0.4). All metric operations are lock-free
// atomics; registration takes a mutex but happens once per process.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
	keys []string // registration order, for stable output
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

type family struct {
	name, help, typ string
	labels          []string
	buckets         []float64 // histograms only

	mu     sync.Mutex
	series map[string]any // label-values key -> *Counter / *Gauge / *Histogram
	order  []string
}

// lookup returns the family for name, creating it on first use and
// panicking on a redefinition with a different type or label set —
// a programming error, like redefining a flag.
func (r *Registry) lookup(name, help, typ string, buckets []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q redefined as %s%v (was %s%v)",
				name, typ, labels, f.typ, f.labels))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, buckets: buckets,
		labels: append([]string(nil), labels...), series: make(map[string]any)}
	r.fams[name] = f
	r.keys = append(r.keys, name)
	return f
}

func (f *family) series1(values []string, make_ func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := make_()
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// ---- counter ----

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative n panics (counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: counter decrement")
	}
	c.v.Add(uint64(n))
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, "counter", nil, nil)
	return f.series1(nil, func() any { return &Counter{} }).(*Counter)
}

// CounterVec is a family of counters partitioned by label values.
type CounterVec struct{ f *family }

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.lookup(name, help, "counter", nil, labels)}
}

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.series1(values, func() any { return &Counter{} }).(*Counter)
}

// ---- gauge ----

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, "gauge", nil, nil)
	return f.series1(nil, func() any { return &Gauge{} }).(*Gauge)
}

// FloatGauge is a gauge holding a float64 (atomic bits), for values like
// optimality-gap ratios that an integer gauge cannot carry.
type FloatGauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// FloatGauge registers (or returns) an unlabeled float gauge.
func (r *Registry) FloatGauge(name, help string) *FloatGauge {
	f := r.lookup(name, help, "gauge", nil, nil)
	return f.series1(nil, func() any { return &FloatGauge{} }).(*FloatGauge)
}

// ---- histogram ----

// DefBuckets are latency buckets in seconds, spanning 1ms to 60s — wide
// enough for both HTTP request latencies and branch-and-bound solves.
var DefBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// Histogram counts observations into fixed cumulative buckets.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // one per bound; +Inf is implicit via count
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds))}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Buckets are cumulative in the exposition; store per-bucket here and
	// accumulate when rendering. Find the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.counts) {
		h.counts[i].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		new_ := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new_) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Histogram registers (or returns) an unlabeled histogram with the given
// bucket upper bounds (ascending; nil means DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.lookup(name, help, "histogram", buckets, nil)
	return f.series1(nil, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// HistogramVec is a family of histograms partitioned by label values.
type HistogramVec struct{ f *family }

// HistogramVec registers (or returns) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{r.lookup(name, help, "histogram", buckets, labels)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.series1(values, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

// ---- exposition ----

// WriteTo renders every registered metric in the Prometheus text format,
// families in registration order, series in creation order.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	keys := append([]string(nil), r.keys...)
	fams := make([]*family, len(keys))
	for i, k := range keys {
		fams[i] = r.fams[k]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.render(&b)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

func (f *family) render(b *strings.Builder) {
	f.mu.Lock()
	order := append([]string(nil), f.order...)
	series := make([]any, len(order))
	for i, k := range order {
		series[i] = f.series[k]
	}
	f.mu.Unlock()
	if len(series) == 0 {
		return
	}
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, f.help)
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	for i, s := range series {
		values := strings.Split(order[i], "\x00")
		if order[i] == "" {
			values = nil
		}
		switch m := s.(type) {
		case *Counter:
			fmt.Fprintf(b, "%s%s %d\n", f.name, labelString(f.labels, values, ""), m.Value())
		case *Gauge:
			fmt.Fprintf(b, "%s%s %d\n", f.name, labelString(f.labels, values, ""), m.Value())
		case *FloatGauge:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, values, ""),
				strconv.FormatFloat(m.Value(), 'g', -1, 64))
		case *Histogram:
			var cum uint64
			for j, bound := range m.bounds {
				cum += m.counts[j].Load()
				le := strconv.FormatFloat(bound, 'g', -1, 64)
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labels, values, le), cum)
			}
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labels, values, "+Inf"), m.Count())
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelString(f.labels, values, ""),
				strconv.FormatFloat(m.Sum(), 'g', -1, 64))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(f.labels, values, ""), m.Count())
		}
	}
}

// labelString renders {k="v",...}; le, when non-empty, is appended as the
// histogram bucket bound label. Returns "" for zero labels.
func labelString(names, values []string, le string) string {
	if len(names) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if le != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Handler returns an http.Handler serving the registry in the Prometheus
// text format — mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = r.WriteTo(w)
	})
}

// ---- search metrics probe ----

// SearchMetrics is a Probe that folds search events into a Registry —
// the bridge between the tracing layer and the /metrics endpoint.
type SearchMetrics struct {
	searches    *Counter
	nodes       *Counter
	ubImproved  *Counter
	solutions   *Counter
	poolGets    *Counter
	poolPuts    *Counter
	poolDonates *Counter
	drains      *Counter
	steals      *Counter
	parks       *Counter
	subproblems *Counter
	distLeases  *Counter
	distRequeue *Counter
	distStale   *Counter
	pruned      *CounterVec
	gap         *FloatGauge
	bestLB      *FloatGauge
	frontier    *Gauge
	rate        *FloatGauge
	solveSec    *Histogram
	subSec      *Histogram
}

// NewSearchMetrics registers the evotree_search_* metrics on reg and
// returns the probe feeding them.
func NewSearchMetrics(reg *Registry) *SearchMetrics {
	return &SearchMetrics{
		searches:    reg.Counter("evotree_searches_total", "Branch-and-bound searches started."),
		nodes:       reg.Counter("evotree_search_nodes_expanded_total", "BBT nodes expanded across all searches."),
		ubImproved:  reg.Counter("evotree_search_ub_improvements_total", "Strict upper-bound improvements."),
		solutions:   reg.Counter("evotree_search_solutions_total", "Complete topologies matching the incumbent cost."),
		poolGets:    reg.Counter("evotree_pool_gets_total", "Subproblems pulled from the global pool."),
		poolPuts:    reg.Counter("evotree_pool_puts_total", "Subproblems preserved in the global pool by the master."),
		poolDonates: reg.Counter("evotree_pool_donations_total", "Subproblems donated to an empty global pool."),
		drains:      reg.Counter("evotree_worker_drains_total", "Times a worker's local pool ran dry."),
		steals:      reg.Counter("evotree_steals_total", "Subproblems stolen from other workers' deques."),
		parks:       reg.Counter("evotree_worker_parks_total", "Times a worker parked after an empty spin-and-steal round."),
		subproblems: reg.Counter("evotree_subproblems_total", "Reduced matrices solved by the decomposition pipeline."),
		distLeases:  reg.Counter("evotree_dist_leases_total", "Work-unit leases granted by the distributed coordinator."),
		distRequeue: reg.Counter("evotree_dist_requeues_total", "Expired leases returned to the distributed work queue."),
		distStale:   reg.Counter("evotree_dist_stale_results_total", "Worker results rejected because their lease was no longer current."),
		pruned:      reg.CounterVec("evotree_pruned_total", "Search nodes discarded, by pruning rule.", "rule"),
		gap:         reg.FloatGauge("evotree_search_gap_ratio", "Relative optimality gap of the most recent GapSample (incumbent vs best open LB)."),
		bestLB:      reg.FloatGauge("evotree_search_best_open_lb", "Best open lower bound of the most recent GapSample (0 when the frontier is empty)."),
		frontier:    reg.Gauge("evotree_search_frontier_nodes", "Open subproblems at the most recent GapSample."),
		rate:        reg.FloatGauge("evotree_search_nodes_per_second", "Expansion throughput of the most recent GapSample."),
		solveSec:    reg.Histogram("evotree_search_seconds", "Wall-clock duration of one branch-and-bound search.", nil),
		subSec:      reg.Histogram("evotree_subproblem_seconds", "Wall-clock duration of one decomposition subproblem solve.", nil),
	}
}

// Emit implements Probe.
func (m *SearchMetrics) Emit(ev Event) {
	switch ev.Kind {
	case ProblemStart:
		m.searches.Inc()
	case ProblemFinish:
		m.nodes.Add(ev.Nodes)
		m.solveSec.Observe(ev.Elapsed.Seconds())
	case UBImproved:
		m.ubImproved.Inc()
		m.solutions.Inc()
	case SolutionFound:
		m.solutions.Inc()
	case PoolGet:
		m.poolGets.Inc()
	case PoolPut:
		m.poolPuts.Inc()
	case PoolDonate:
		m.poolDonates.Inc()
	case WorkerDrain:
		m.drains.Inc()
	case Steal:
		m.steals.Add(ev.Nodes)
	case Park:
		m.parks.Inc()
	case SubproblemFinish:
		m.subproblems.Inc()
		m.subSec.Observe(ev.Elapsed.Seconds())
	case Dispatch:
		m.distLeases.Inc()
	case Requeue:
		m.distRequeue.Inc()
	case StaleResult:
		m.distStale.Inc()
	case Prune:
		m.pruned.With(ev.Phase).Add(ev.Nodes)
	case GapSample:
		m.gap.Set(ev.Gap)
		m.frontier.Set(ev.Frontier)
		m.rate.Set(ev.Rate)
		lb := ev.BestLB
		if math.IsInf(lb, 0) || math.IsNaN(lb) {
			lb = 0 // exposition must stay parseable; 0 marks "no open work"
		}
		m.bestLB.Set(lb)
	default:
		// SearchConfig, worker lifecycle and phase boundaries carry no
		// counter of their own; their effects show up in the metrics above.
	}
}
