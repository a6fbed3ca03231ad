package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"evotree/internal/compact"
	"evotree/internal/core"
	"evotree/internal/matrix"
	"evotree/internal/tree"
	"evotree/internal/web"
)

// serviceSlice is the length of the closed-loop slices whose median
// throughput the service workload reports.
const serviceSlice = 500 * time.Millisecond

// clients is the number of closed-loop client goroutines of the service
// workload: each sends its next request only when the previous answer
// has arrived.
const clients = 2

// serviceShape sizes the service workload. Every fourth request is one of
// `unique` matrices, cycled in order; the other three are species-permuted
// copies of the `hot` matrices warmed in setup, dealt in rounds that touch
// every hot matrix once. The server's LRU result cache holds `cache`
// entries: a hot matrix comes back within two rounds, long before enough
// other keys could push it out, while a unique matrix comes back only after
// the other uniques and every hot matrix have been touched — more keys than
// the cache holds — so it is solved again every time.
type serviceShape struct {
	hot, perms, unique, cache int
	sizes                     [2]int
	sequence                  int // requests in the cycled sequence
	warm                      int // requests of the warm-up window
}

func serviceShapeFor(quick bool) serviceShape {
	if quick {
		return serviceShape{hot: 4, perms: 2, unique: 16, cache: 12, sizes: [2]int{8, 12}, sequence: 64, warm: 16}
	}
	return serviceShape{hot: 32, perms: 8, unique: 128, cache: 96, sizes: [2]int{20, 32}, sequence: 1024, warm: 256}
}

// serviceReq is one prepared request body with what it must return.
type serviceReq struct {
	body []byte
	m    *matrix.Matrix // the matrix in the body's species order
	ref  float64        // core.Construct cost in setup
	hot  bool           // a permuted copy of a warmed matrix: must be a cache hit
}

type serviceSession struct {
	ws     *web.Server
	srv    *http.Server
	served chan error
	url    string
	tr     *http.Transport
	client *http.Client
	seq    []*serviceReq
	pos    atomic.Int64 // next position in seq, carried across windows

	uniques []*matrix.Matrix
	refs    []float64    // reference costs of uniques
	trees   []*tree.Tree // reference trees of every matrix, for encode timing
	sent    []*matrix.Matrix
}

// setupService generates every request body up front (building them in
// the client loop made throughput drift run to run), solves each matrix
// once for its reference, starts the server on a loopback port and warms
// its cache with the hot matrices.
func setupService(cfg config) (*serviceSession, error) {
	sh := serviceShapeFor(cfg.quick)
	rng := rand.New(rand.NewSource(cfg.seed))
	s := &serviceSession{}
	gen := func(i int) (*matrix.Matrix, float64, error) {
		n := sh.sizes[0] + i%(sh.sizes[1]-sh.sizes[0]+1)
		m := matrix.PerturbedUltrametric(rng, n, 100, 0.8)
		for {
			small, err := servedSearchesStaySmall(m)
			if err != nil {
				return nil, 0, err
			}
			if small {
				break
			}
			m = matrix.PerturbedUltrametric(rng, n, 100, 0.8)
		}
		res, err := core.Construct(m, core.DefaultOptions(workers))
		if err != nil {
			return nil, 0, err
		}
		s.trees = append(s.trees, res.Tree)
		ref := res.Cost
		if cfg.skewReference {
			ref *= 1.5
		}
		return m, ref, nil
	}
	body := func(m *matrix.Matrix) ([]byte, error) {
		return json.Marshal(web.Request{Matrix: m.String(), Algorithm: "compact"})
	}

	var warm []*serviceReq
	hot := make([][]*serviceReq, sh.perms) // hot[round][matrix]
	for i := 0; i < sh.hot; i++ {
		m, ref, err := gen(i)
		if err != nil {
			return nil, err
		}
		b, err := body(m)
		if err != nil {
			return nil, err
		}
		warm = append(warm, &serviceReq{body: b, m: m, ref: ref})
		for p := range hot {
			pm := m.Relabel(rng.Perm(m.Len()))
			b, err := body(pm)
			if err != nil {
				return nil, err
			}
			hot[p] = append(hot[p], &serviceReq{body: b, m: pm, ref: ref, hot: true})
			s.sent = append(s.sent, pm)
		}
	}
	var dealt []*serviceReq
	for _, round := range hot {
		for _, k := range rng.Perm(len(round)) {
			dealt = append(dealt, round[k])
		}
	}
	var unique []*serviceReq
	for i := 0; i < sh.unique; i++ {
		m, ref, err := gen(i)
		if err != nil {
			return nil, err
		}
		b, err := body(m)
		if err != nil {
			return nil, err
		}
		unique = append(unique, &serviceReq{body: b, m: m, ref: ref})
		s.uniques = append(s.uniques, m)
		s.refs = append(s.refs, ref)
		s.sent = append(s.sent, m)
	}
	for i, h := 0, 0; i < sh.sequence; i++ {
		if i%4 == 3 {
			s.seq = append(s.seq, unique[(i/4)%len(unique)])
		} else {
			s.seq = append(s.seq, dealt[h%len(dealt)])
			h++
		}
	}

	if err := s.start(sh.cache); err != nil {
		return nil, err
	}
	for _, rq := range warm {
		if a := s.post(rq); a.err != nil || a.status != http.StatusOK {
			s.close()
			return nil, fmt.Errorf("warming the cache: status %d, error %v", a.status, a.err)
		}
	}
	s.window(0, sh.warm)
	return s, nil
}

// servedSearchesStaySmall reports whether the searches the server runs for
// m stay small, as searchesStaySmall defines it. The server solves m's
// canonical relabeling, whose insertion order can make a search far harder
// than in m's own order: one n=30 draw took 60-100 ms per request there,
// against about 1 ms for a typical miss, and cut one seed's throughput by a
// third on its own.
func servedSearchesStaySmall(m *matrix.Matrix) (bool, error) {
	_, perm := m.CanonicalFingerprint()
	mc := m.Relabel(perm)
	h, _, err := compact.BuildHierarchy(mc)
	if err != nil {
		return false, err
	}
	return searchesStaySmall(mc, h)
}

// start serves a fresh web.Server on a loopback port.
func (s *serviceSession) start(cacheSize int) error {
	s.ws = web.NewServer()
	s.ws.Workers = workers
	s.ws.JobWorkers = workers
	s.ws.CacheSize = cacheSize
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = &http.Server{Handler: s.ws.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.url = "http://" + ln.Addr().String() + "/api/tree"
	s.tr = &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}
	s.client = &http.Client{Transport: s.tr, Timeout: time.Minute}
	return nil
}

// close shuts the HTTP server down, waits for it to stop serving, and
// stops the solver pool.
func (s *serviceSession) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // a timeout here leaves nothing to clean up but the process
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: server:", err)
	}
	s.tr.CloseIdleConnections()
	s.ws.Close()
}

// answer is one request as the client saw it.
type answer struct {
	rq     *serviceReq
	status int
	body   []byte
	start  time.Time
	lat    time.Duration
	err    error
}

func (s *serviceSession) post(rq *serviceReq) answer {
	a := answer{rq: rq, start: time.Now()}
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(rq.body))
	if err == nil {
		a.status = resp.StatusCode
		a.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	a.lat, a.err = time.Since(a.start), err
	return a
}

// window runs the closed loop: `clients` goroutines walk the request
// sequence until d has passed (or, with limit > 0, until limit requests
// were sent). It returns the answers and the window's wall time.
func (s *serviceSession) window(d time.Duration, limit int) ([]answer, time.Duration) {
	var wg sync.WaitGroup
	per := make([][]answer, clients)
	var sent atomic.Int64
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				if limit > 0 && sent.Add(1) > int64(limit) || limit == 0 && time.Since(start) >= d {
					return
				}
				i := int(s.pos.Add(1)-1) % len(s.seq)
				per[c] = append(per[c], s.post(s.seq[i]))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var out []answer
	for _, a := range per {
		out = append(out, a...)
	}
	return out, wall
}

// decode checks one answer and returns the response it carried: HTTP 200,
// the reference cost, a cache hit for a permuted repeat, and a Newick tree
// that parses, is valid, and is feasible for the matrix that was sent.
func (s *serviceSession) decode(a answer) (*web.Response, error) {
	if a.err != nil {
		return nil, a.err
	}
	if a.status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", a.status, a.body)
	}
	var resp web.Response
	if err := json.Unmarshal(a.body, &resp); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	if a.rq.hot && !resp.Cached {
		return &resp, errors.New("a permuted copy of a warmed matrix was not served from the cache")
	}
	if !resp.Complete || !resp.Feasible {
		return &resp, fmt.Errorf("response not complete (%v) or not feasible (%v)", resp.Complete, resp.Feasible)
	}
	if err := sameCost("service", resp.Cost, a.rq.ref); err != nil {
		return &resp, err
	}
	t, err := tree.ParseNewick(resp.Newick, 1e-6)
	if err != nil {
		return &resp, err
	}
	index := map[string]int{}
	for i, name := range a.rq.m.Names() {
		index[name] = i
	}
	perm := make([]int, a.rq.m.Len())
	for k := range perm {
		i, ok := index[t.SpeciesName(k)]
		if !ok {
			return &resp, fmt.Errorf("tree names species %q the matrix lacks", t.SpeciesName(k))
		}
		perm[k] = i
	}
	if err := t.Validate(1e-6); err != nil {
		return &resp, err
	}
	if !t.Feasible(a.rq.m.Relabel(perm), 1e-6) {
		return &resp, errors.New("tree is not feasible for the matrix sent")
	}
	if math.Abs(t.Cost()-resp.Cost) > 1e-6*math.Max(1, resp.Cost) {
		return &resp, fmt.Errorf("Newick tree costs %v, response says %v", t.Cost(), resp.Cost)
	}
	return &resp, nil
}

func measureService(cfg config, rep *report) error {
	s, setupS, err := timedSetup(func() (*serviceSession, error) { return setupService(cfg) })
	if err != nil {
		return err
	}
	defer s.close()
	// Each slice's answers are checked, and their bodies dropped, between
	// slices: off the measured time, and without holding every body.
	t := &tally{}
	var lat []time.Duration
	var rates []float64
	var wall time.Duration
	before := s.ws.Stats()
	slices := max(1, int(cfg.duration()/serviceSlice))
	for k := 0; k < slices; k++ {
		as, w := s.window(cfg.duration()/time.Duration(slices), 0)
		for _, a := range as {
			_, err := s.decode(a)
			t.check(err)
			lat = append(lat, a.lat)
		}
		rates = append(rates, float64(len(as))/w.Seconds())
		wall += w
	}
	after := s.ws.Stats()
	t.into(rep)
	rep.record["hits"] = after.Hits - before.Hits
	rep.record["solves"] = after.Solves - before.Solves
	rep.record["shed"] = after.Shed - before.Shed
	msLat := make([]float64, len(lat))
	for i, d := range lat {
		msLat[i] = ms(d)
	}
	rep.record["latency_p99_ms"] = quantile(msLat, 0.99)
	return endToEnd(rep, setupS, lat, rates, wall)
}

func tracedService(cfg config, rep *report) error {
	s, err := setupService(cfg)
	if err != nil {
		return err
	}
	defer s.close()
	lv, t, log := layerValues{}, &tally{}, newSpanLog()
	var plain, traced struct {
		wall  time.Duration
		calls int
	}
	var hitMS, missMS, allMS []float64
	before := s.ws.Stats()
	slice := cfg.duration() / (2 * overheadSlices)
	for k := 0; k < 2*overheadSlices; k++ {
		tracedSlice := k%2 == 1
		as, wall := s.window(slice, 0)
		if tracedSlice {
			traced.wall += wall
			traced.calls += len(as)
			for _, a := range as {
				log.add(-1, "web.request", a.start, a.start.Add(a.lat))
			}
		} else {
			plain.wall += wall
			plain.calls += len(as)
		}
		for _, a := range as {
			resp, err := s.decode(a)
			t.check(err)
			allMS = append(allMS, ms(a.lat))
			switch {
			case resp == nil:
			case resp.Cached:
				hitMS = append(hitMS, ms(a.lat))
			default:
				missMS = append(missMS, ms(a.lat))
			}
		}
	}
	after := s.ws.Stats()
	lv["trace.overhead"] = overheadRatio(traced.wall, traced.calls, plain.wall, plain.calls)
	hits := after.Hits - before.Hits
	lv["web.hit_ratio"] = ratio(float64(hits), float64(hits+after.Misses-before.Misses+after.Coalesced-before.Coalesced))
	lv["web.hit_latency_p50_ms"] = quantile(hitMS, 0.5)
	lv["web.miss_latency_p50_ms"] = quantile(missMS, 0.5)
	lv["web.latency_p99_ms"] = quantile(allMS, 0.99)
	lv["web.solves"] = float64(after.Solves - before.Solves)
	lv["matrix.fingerprint_us"] = perCallUS(s.sent, func(m *matrix.Matrix) { m.CanonicalFingerprint() })
	lv["tree.encode_us"] = perCallUS(s.trees, func(tr *tree.Tree) { _ = tr.Newick() + tr.Ascii() })

	// The pipeline each fresh request runs inside the server, called
	// directly with the benchmark's probe so its stages are visible.
	col := &collector{}
	var pt pipelineTrace
	for i, m := range s.uniques {
		r, err := tracedConstruct(m, col, log, &pt)
		if err != nil {
			t.check(err)
			continue
		}
		t.check(sameCost("core.Construct", r.Cost, s.refs[i]))
	}
	pt.into(lv)
	subs, err := searchLayersOf(s.uniques, lv, t)
	if err != nil {
		return err
	}
	lv.into(rep)
	t.into(rep)
	rep.record["requests"] = plain.calls + traced.calls
	rep.record["bb_inputs"] = subs
	return log.finish(cfg, rep)
}
