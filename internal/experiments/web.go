package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"evotree/internal/matrix"
	"evotree/internal/web"
)

// The web experiment is the load harness for evoweb's bounded solve
// pipeline (worker pool + permutation-invariant result cache + coalescer
// + admission control). It drives the real HTTP handler in-process
// through three phases and reports latency percentiles, cache hit rate,
// and shed rate:
//
//   - unique: every request is a fresh matrix — all misses, measures raw
//     solve latency through the pool.
//   - cached: a small working set replayed under random species
//     relabelings — hits must dominate and return without a solve.
//   - shed: a burst wider than workers+queue of slow solves — admission
//     control must answer the overflow with 429 instead of queueing
//     without bound.
//
// With Config.BenchOut set it writes the evotree-web-bench/v1 report
// checked in as BENCH_pr7.json; outside Quick mode it enforces the CI
// smoke gates (cached hit rate and p99, shed rate bounds).

func init() { register("web", runWeb) }

// webPhase is one phase row of the JSON report.
type webPhase struct {
	Phase     string  `json:"phase"`
	Requests  int     `json:"requests"`
	Clients   int     `json:"clients"`
	OK        int     `json:"ok"`
	Shed      int     `json:"shed_429"`
	Partial   int     `json:"partial_503"`
	Errors    int     `json:"errors"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	HitRate   float64 `json:"cache_hit_rate"`
	ShedRate  float64 `json:"shed_rate"`
	Solves    int64   `json:"solves"`
	Coalesced int64   `json:"coalesced"`
}

// webReport is the schema of BENCH_pr7.json.
type webReport struct {
	Schema     string     `json:"schema"` // "evotree-web-bench/v1"
	GOOS       string     `json:"goos"`
	GOARCH     string     `json:"goarch"`
	GoVersion  string     `json:"goversion"`
	NumCPU     int        `json:"num_cpu"`
	GoMaxProcs int        `json:"gomaxprocs"`
	Phases     []webPhase `json:"phases"`
}

// webClientResult is one request's outcome.
type webClientResult struct {
	code    int
	elapsed time.Duration
}

// runPhase fires requests at the handler from `clients` concurrent
// goroutines and aggregates outcomes plus the server's pipeline stats.
func runPhase(name string, s *web.Server, h http.Handler, clients int, bodies []string) webPhase {
	before := s.Stats()
	results := make([]webClientResult, len(bodies))
	var wg sync.WaitGroup
	next := make(chan int)
	go func() {
		for i := range bodies {
			next <- i
		}
		close(next)
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				req := httptest.NewRequest("POST", "/api/tree", strings.NewReader(bodies[i]))
				req.Header.Set("Content-Type", "application/json")
				rec := httptest.NewRecorder()
				start := time.Now()
				h.ServeHTTP(rec, req)
				results[i] = webClientResult{code: rec.Code, elapsed: time.Since(start)}
			}
		}()
	}
	wg.Wait()
	after := s.Stats()

	ph := webPhase{Phase: name, Requests: len(bodies), Clients: clients}
	var lat []float64
	for _, r := range results {
		switch r.code {
		case http.StatusOK:
			ph.OK++
			lat = append(lat, float64(r.elapsed.Microseconds())/1000)
		case http.StatusTooManyRequests:
			ph.Shed++
		case http.StatusServiceUnavailable:
			ph.Partial++
			lat = append(lat, float64(r.elapsed.Microseconds())/1000)
		default:
			ph.Errors++
		}
	}
	ph.P50Ms = percentile(lat, 0.50)
	ph.P99Ms = percentile(lat, 0.99)
	hits := after.Hits - before.Hits
	if n := int64(len(bodies)); n > 0 {
		ph.HitRate = float64(hits) / float64(n)
		ph.ShedRate = float64(ph.Shed) / float64(n)
	}
	ph.Solves = after.Solves - before.Solves
	ph.Coalesced = after.Coalesced - before.Coalesced
	return ph
}

func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(p * float64(len(s)-1))
	return s[i]
}

// treeBody renders a POST /api/tree JSON payload for a matrix.
func treeBody(m *matrix.Matrix, algo string) string {
	b, _ := json.Marshal(struct {
		Matrix    string `json:"matrix"`
		Algorithm string `json:"algorithm"`
	}{m.String(), algo})
	return string(b)
}

func runWeb(cfg Config) (*Figure, error) {
	nUnique, nCached, workingSet := 24, 60, 5
	clients := 8
	size := 10
	if cfg.Quick {
		nUnique, nCached, workingSet = 6, 12, 2
		clients = 4
		size = 8
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	s := web.NewServer()
	s.Workers = cfg.Workers
	s.JobWorkers = 4
	s.QueueDepth = 64
	h := s.Handler()
	defer s.Close()

	// Phase 1: unique matrices, every request a fresh solve.
	var unique []string
	for i := 0; i < nUnique; i++ {
		unique = append(unique, treeBody(matrix.Random0100(rng, size), "compact"))
	}
	phUnique := runPhase("unique", s, h, clients, unique)

	// Phase 2: a small working set replayed under random relabelings —
	// the permutation-invariant cache must serve these without solving.
	var base []*matrix.Matrix
	for i := 0; i < workingSet; i++ {
		base = append(base, matrix.Random0100(rng, size))
	}
	var warm []string
	for _, m := range base {
		warm = append(warm, treeBody(m, "compact"))
	}
	runPhase("cache-warm", s, h, clients, warm) // populate, not reported
	var cached []string
	for i := 0; i < nCached; i++ {
		m := base[i%workingSet]
		cached = append(cached, treeBody(m.Relabel(rng.Perm(m.Len())), "compact"))
	}
	phCached := runPhase("cached", s, h, clients, cached)

	// Phase 3: a burst wider than workers+queue of effectively unbounded
	// solves; admission control must shed the overflow with 429 and the
	// deadline must cut the admitted ones to 503+partial.
	shedSrv := web.NewServer()
	shedSrv.JobWorkers = 1
	shedSrv.QueueDepth = 2
	shedSrv.MaxNodes = 1 << 40
	shedSrv.SolveTimeout = 250 * time.Millisecond
	if cfg.Quick {
		shedSrv.SolveTimeout = 50 * time.Millisecond
	}
	shedH := shedSrv.Handler()
	defer shedSrv.Close()
	var burst []string
	for i := 0; i < 16; i++ {
		burst = append(burst, treeBody(matrix.Random0100(rng, 18), "bb"))
	}
	phShed := runPhase("shed", shedSrv, shedH, len(burst), burst)

	phases := []webPhase{phUnique, phCached, phShed}
	fig := &Figure{
		ID:     "web",
		Title:  "evoweb solve pipeline under load: latency, cache hits, admission control",
		XLabel: "phase (1=unique 2=cached 3=shed)",
		YLabel: "milliseconds / rates",
	}
	for i, ph := range phases {
		fig.X = append(fig.X, float64(i+1))
		fig.AddPoint("p50 ms", ph.P50Ms)
		fig.AddPoint("p99 ms", ph.P99Ms)
		fig.AddPoint("hit rate", ph.HitRate)
		fig.AddPoint("shed rate", ph.ShedRate)
		fig.Note("%s: %d req (%d clients): ok=%d shed=%d partial=%d p50=%.2fms p99=%.2fms hit=%.0f%% solves=%d coalesced=%d",
			ph.Phase, ph.Requests, ph.Clients, ph.OK, ph.Shed, ph.Partial,
			ph.P50Ms, ph.P99Ms, 100*ph.HitRate, ph.Solves, ph.Coalesced)
	}

	// CI smoke gates. Thresholds are generous — they catch a broken
	// cache, broken admission control, or a pathologically slow pipeline,
	// not scheduling jitter.
	if !cfg.Quick {
		if phUnique.Errors > 0 || phUnique.OK != phUnique.Requests {
			return nil, fmt.Errorf("web: unique phase failed requests: %+v", phUnique)
		}
		if phCached.HitRate < 0.9 {
			return nil, fmt.Errorf("web: cached phase hit rate %.2f below 0.90 — the permutation-invariant cache is not hitting", phCached.HitRate)
		}
		if phCached.P99Ms > 250 {
			return nil, fmt.Errorf("web: cached p99 %.1fms above 250ms — cache hits are entering the solver", phCached.P99Ms)
		}
		if phShed.Shed == 0 {
			return nil, fmt.Errorf("web: shed phase saw no 429s — admission control is not bounding the queue")
		}
		if phShed.Errors > 0 {
			return nil, fmt.Errorf("web: shed phase returned unexpected statuses: %+v", phShed)
		}
	}

	if cfg.BenchOut != "" {
		report := webReport{
			Schema:     "evotree-web-bench/v1",
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			GoVersion:  runtime.Version(),
			NumCPU:     runtime.NumCPU(),
			GoMaxProcs: runtime.GOMAXPROCS(0),
			Phases:     phases,
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(cfg.BenchOut, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
		fig.Note("report written to %s", cfg.BenchOut)
	}
	return fig, nil
}
