package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Jobs.")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if same := r.Counter("jobs_total", "Jobs."); same != c {
		t.Fatal("re-registration must return the same counter")
	}
	g := r.Gauge("depth", "Depth.")
	g.Set(7)
	g.Dec()
	g.Dec()
	g.Inc()
	if g.Value() != 6 {
		t.Fatalf("gauge = %d, want 6", g.Value())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("redefining a counter as a gauge must panic")
		}
	}()
	r.Gauge("jobs_total", "oops")
}

func TestCounterVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "Requests.", "route", "code")
	v.With("/api", "200").Add(3)
	v.With("/api", "400").Inc()
	v.With("/", "200").Inc()

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP req_total Requests.",
		"# TYPE req_total counter",
		`req_total{route="/api",code="200"} 3`,
		`req_total{route="/api",code="400"} 1`,
		`req_total{route="/",code="200"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); got != 56.05 {
		t.Fatalf("sum = %v", got)
	}
	var b strings.Builder
	_, _ = r.WriteTo(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{le="0.1"} 1`,
		`latency_seconds_bucket{le="1"} 3`,
		`latency_seconds_bucket{le="10"} 4`,
		`latency_seconds_bucket{le="+Inf"} 5`,
		"latency_seconds_sum 56.05",
		"latency_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBoundaryGoesToBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "h.", []float64{1, 2})
	h.Observe(1) // le="1" is inclusive in Prometheus semantics
	var b strings.Builder
	_, _ = r.WriteTo(&b)
	if !strings.Contains(b.String(), `h_bucket{le="1"} 1`) {
		t.Fatalf("boundary value not in its bucket:\n%s", b.String())
	}
}

func TestConcurrentMetrics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n", "n.")
	h := r.Histogram("h", "h.", nil)
	v := r.CounterVec("l", "l.", "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.01)
				v.With("x").Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 || v.With("x").Value() != 8000 {
		t.Fatalf("lost updates: c=%d h=%d l=%d", c.Value(), h.Count(), v.With("x").Value())
	}
	if got, want := h.Sum(), 80.0; got < want-1e-6 || got > want+1e-6 {
		t.Fatalf("histogram sum = %v, want ~%v", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("e", "e.", "k").With("a\"b\\c\nd").Inc()
	var b strings.Builder
	_, _ = r.WriteTo(&b)
	if !strings.Contains(b.String(), `e{k="a\"b\\c\nd"} 1`) {
		t.Fatalf("bad escaping:\n%s", b.String())
	}
}

func TestMultiProbe(t *testing.T) {
	var a, b int
	pa := ProbeFunc(func(Event) { a++ })
	pb := ProbeFunc(func(Event) { b++ })
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("empty Multi must be nil")
	}
	m := Multi(pa, nil, pb)
	m.Emit(Event{Kind: SeedBound})
	m.Emit(Event{Kind: UBImproved})
	if a != 2 || b != 2 {
		t.Fatalf("fanout a=%d b=%d", a, b)
	}
}

func TestKindString(t *testing.T) {
	if UBImproved.String() != "ub_improved" || Kind(200).String() != "unknown" {
		t.Fatal("kind names wrong")
	}
}
