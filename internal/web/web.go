// Package web implements the project's web front end (the NSC report's
// stated goal of offering the tree-construction system "through a Web
// interface"): a net/http server that accepts a distance matrix or a
// FASTA alignment and returns the constructed ultrametric tree as Newick,
// an ASCII dendrogram, and JSON.
//
// The solve path is asynchronous-capable and production-bounded: every
// construction flows through a fixed pool of long-lived solver workers
// behind a bounded admission queue, fronted by a permutation-invariant
// result cache and an in-flight request coalescer (see solve.go). Clients
// choose between the synchronous POST /api/tree (blocks until the result,
// 429 when the queue is full, 503 with a partial result on deadline) and
// the job API (POST /api/jobs → id, GET /api/jobs/{id} to poll,
// DELETE to cancel, GET /api/jobs/{id}/events for a per-job SSE
// telemetry stream).
package web

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"io"
	"log/slog"
	"mime"
	"net/http"
	"strings"
	"sync"
	"time"

	"evotree/internal/bb"
	"evotree/internal/compact"
	"evotree/internal/core"
	"evotree/internal/matrix"
	"evotree/internal/obs"
	"evotree/internal/seqsim"
	"evotree/internal/upgma"
)

// Server carries the configuration of the web front end.
type Server struct {
	// MaxSpecies rejects inputs larger than this (exact search cost is
	// exponential; the public endpoint must be bounded). Default 32.
	MaxSpecies int
	// MaxNodes caps each branch-and-bound search. Default 500000.
	MaxNodes int64
	// Workers for the parallel construction. Default 4.
	Workers int
	// Logger, when non-nil, enables structured per-request access logging
	// and request-level error logging.
	Logger *slog.Logger
	// Registry collects the server's metrics and backs GET /metrics.
	// NewServer creates one; replace it to share a registry across
	// components.
	Registry *obs.Registry
	// GapPeriod is the optimality-gap sampling interval wired into every
	// search (GapSample events feed the SSE progress stream and the gap
	// gauges). Zero disables sampling. Default 1s.
	GapPeriod time.Duration
	// MaxBodyBytes bounds request bodies on the POST endpoints; larger
	// payloads are rejected with 413. Default 1 MiB.
	MaxBodyBytes int64
	// SolveTimeout is the server-side deadline of every admitted solve,
	// measured from admission (it covers queue wait). A search that hits
	// it returns its incumbent flagged partial. Default 60s.
	SolveTimeout time.Duration
	// JobWorkers is the size of the long-lived solver pool consuming the
	// admission queue. Default 4.
	JobWorkers int
	// QueueDepth bounds the admission queue; when it is full new solves
	// are shed with 429. Default 64.
	QueueDepth int
	// CacheSize bounds the result cache (entries, LRU). Default 1024.
	CacheSize int
	// JobRetention bounds how many finished jobs stay pollable before the
	// oldest are evicted. Default 4096.
	JobRetention int

	httpm    *obs.HTTPMetrics
	search   *obs.SearchMetrics
	builds   *obs.CounterVec
	buildS   *obs.HistogramVec
	recorder *obs.Recorder
	bcast    *obs.Broadcaster
	solver   *solver
	jobs     *jobStore

	handlerOnce sync.Once
	handler     http.Handler
}

// NewServer returns a server with production defaults.
func NewServer() *Server {
	return &Server{
		MaxSpecies:   32,
		MaxNodes:     500_000,
		Workers:      4,
		Registry:     obs.NewRegistry(),
		GapPeriod:    time.Second,
		MaxBodyBytes: 1 << 20,
		SolveTimeout: 60 * time.Second,
		JobWorkers:   4,
		QueueDepth:   64,
		CacheSize:    1024,
		JobRetention: 4096,
	}
}

// Handler returns the HTTP handler tree: the app routes wrapped in the
// telemetry middleware stack (in-flight gauge, per-route request counter
// and latency histogram, optional access log) plus GET /metrics serving
// the registry in Prometheus text format.
//
// Handler is idempotent: every call returns the same handler backed by
// the same metrics, flight recorder, broadcaster, and worker pool, so
// calling it twice neither double-registers metrics on the shared
// Registry nor orphans the first recorder and its subscribers.
func (s *Server) Handler() http.Handler {
	s.handlerOnce.Do(func() { s.handler = s.buildHandler() })
	return s.handler
}

func (s *Server) buildHandler() http.Handler {
	s.httpm = obs.NewHTTPMetrics(s.Registry, "evoweb")
	s.search = obs.NewSearchMetrics(s.Registry)
	s.builds = s.Registry.CounterVec("evoweb_builds_total",
		"Trees built, by algorithm.", "algorithm")
	s.buildS = s.Registry.HistogramVec("evoweb_build_seconds",
		"Wall-clock tree construction time, by algorithm.", nil, "algorithm")
	// Flight recorder (GET /debug/search) and live event broadcaster
	// (GET /api/events, SSE). Both are fed by every search probe; memory
	// stays bounded at stripes × perStripe recorded events.
	s.recorder = obs.NewRecorder(16, 256)
	s.bcast = obs.NewBroadcaster()
	s.solver = newSolver(s.JobWorkers, s.QueueDepth, s.CacheSize, s.SolveTimeout,
		s.Registry, s.solveMatrix)
	s.jobs = newJobStore(s.JobRetention, s.Registry)

	mux := http.NewServeMux()
	handle := func(pattern, route string, h http.HandlerFunc) {
		mux.Handle(pattern, s.httpm.Wrap(route, h))
	}
	handle("GET /{$}", "/", s.handleIndex)
	handle("GET /healthz", "/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	handle("POST /api/tree", "/api/tree", s.handleTree)
	handle("POST /api/jobs", "/api/jobs", s.handleJobSubmit)
	handle("GET /api/jobs/{id}", "/api/jobs/{id}", s.handleJobGet)
	handle("DELETE /api/jobs/{id}", "/api/jobs/{id}", s.handleJobDelete)
	handle("GET /api/jobs/{id}/events", "/api/jobs/{id}/events", s.handleJobEvents)
	handle("GET /api/events", "/api/events", s.handleEvents)
	handle("GET /debug/search", "/debug/search", s.handleDebugSearch)
	mux.Handle("GET /metrics", s.httpm.Wrap("/metrics", s.Registry.Handler()))
	return obs.AccessLog(s.Logger, mux)
}

// Close stops the solver pool: admission starts shedding, in-flight
// solves are cancelled, workers drain and exit. The HTTP handlers stay
// functional for non-solve routes; call on server shutdown.
func (s *Server) Close() {
	if s.solver != nil {
		s.solver.close()
	}
}

// InFlight reports the number of requests currently being served; evoweb
// logs it on graceful shutdown. Zero before Handler is first called.
func (s *Server) InFlight() int64 {
	if s.httpm == nil {
		return 0
	}
	return s.httpm.InFlight.Value()
}

// Request is the JSON (or form) payload of POST /api/tree and POST
// /api/jobs.
type Request struct {
	// Matrix in the PHYLIP-like text format; mutually exclusive with
	// Fasta.
	Matrix string `json:"matrix,omitempty"`
	// Fasta holds aligned DNA sequences; the Hamming distance matrix is
	// computed server-side.
	Fasta string `json:"fasta,omitempty"`
	// Algorithm: "compact" (default), "bb", "upgma", "upgmm".
	Algorithm string `json:"algorithm,omitempty"`
	// ThreeThree enables the 3-3 constraint at the third species.
	ThreeThree bool `json:"threeThree,omitempty"`
	// SVG asks for an SVG dendrogram in the response.
	SVG bool `json:"svg,omitempty"`
}

// Response is the JSON answer of POST /api/tree and the result payload of
// a finished job.
type Response struct {
	Species     int        `json:"species"`
	Algorithm   string     `json:"algorithm"`
	Cost        float64    `json:"cost"`
	Newick      string     `json:"newick"`
	Ascii       string     `json:"ascii"`
	SVG         string     `json:"svg,omitempty"`
	CompactSets [][]string `json:"compactSets,omitempty"`
	Feasible    bool       `json:"feasible"`
	Complete    bool       `json:"complete"` // false when MaxNodes or a deadline cut the search
	// Partial is true when the server-side solve deadline (or an
	// abandoned connection) truncated the search; the tree is the
	// incumbent at cutoff. Served with status 503 on the synchronous API.
	Partial bool `json:"partial,omitempty"`
	// Cached is true when the result came from the permutation-invariant
	// result cache without entering the solver.
	Cached    bool    `json:"cached,omitempty"`
	ElapsedMS float64 `json:"elapsedMs"`
	Expanded  int64   `json:"expanded"`
}

// prepared is a validated request reduced to canonical coordinates.
type prepared struct {
	key   string         // cache key: fingerprint | algorithm | 3-3 flag
	m     *matrix.Matrix // the input matrix, in the request's order
	perm  []int          // canonical order: index k holds m's species perm[k]
	spec  solveSpec
	names []string // the request's species names in canonical order
	svg   bool
}

// prepare validates a decoded request and canonicalizes its matrix.
// Returned errors carry the HTTP status to report.
func (s *Server) prepare(req *Request) (*prepared, int, error) {
	m, err := s.inputMatrix(req)
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	if m.Len() < 2 {
		return nil, http.StatusUnprocessableEntity, fmt.Errorf("need at least 2 species, got %d", m.Len())
	}
	if m.Len() > s.MaxSpecies {
		return nil, http.StatusUnprocessableEntity,
			fmt.Errorf("%d species exceeds this server's limit of %d", m.Len(), s.MaxSpecies)
	}
	algo := req.Algorithm
	if algo == "" {
		algo = "compact"
	}
	switch algo {
	case "compact", "bb", "upgma", "upgmm":
	default:
		return nil, http.StatusUnprocessableEntity,
			fmt.Errorf("unknown algorithm %q (want compact|bb|upgma|upgmm)", algo)
	}
	// Only a solve reads the canonical matrix, so the solver builds it
	// when a task runs; a cache hit or a coalesced request needs just the
	// names.
	fp, perm := m.CanonicalFingerprint()
	names := make([]string, len(perm))
	for k, p := range perm {
		names[k] = m.Name(p)
	}
	return &prepared{
		key:   fmt.Sprintf("%s|%s|%t", fp, algo, req.ThreeThree),
		m:     m,
		perm:  perm,
		spec:  solveSpec{algorithm: algo, threeThree: req.ThreeThree},
		names: names,
		svg:   req.SVG,
	}, 0, nil
}

func (s *Server) handleTree(w http.ResponseWriter, r *http.Request) {
	req, code, err := s.decodeRequest(w, r)
	if err != nil {
		httpError(w, code, err)
		return
	}
	pr, code, err := s.prepare(req)
	if err != nil {
		httpError(w, code, err)
		return
	}
	start := time.Now()
	t, err := s.solver.submit(pr.key, pr.m, pr.perm, pr.spec)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err)
		return
	}
	defer s.solver.detach(t)
	select {
	case <-t.done:
	case <-r.Context().Done():
		// Client hung up or timed out: nothing to write. The deferred
		// detach drops our reference; if we were the last waiter the
		// solve's context is cancelled and the search stops.
		return
	}
	if t.err != nil {
		code := http.StatusUnprocessableEntity
		if errors.Is(t.err, context.DeadlineExceeded) || errors.Is(t.err, context.Canceled) {
			code = http.StatusServiceUnavailable
		}
		httpError(w, code, t.err)
		return
	}
	resp := renderResponse(t.entry, pr.names, pr.svg)
	resp.Cached = t.cancel == nil // pseudo-task ⇒ cache hit
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	code = http.StatusOK
	if resp.Partial {
		// The server-side deadline truncated the search; the body still
		// carries the incumbent so the client can use or discard it.
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// decodeRequest parses the request body under the configured size limit.
// It returns the HTTP status for the error path: 413 for an oversized
// body, 415 for an unsupported Content-Type, 400 for malformed payloads.
// A JSON body is read whole; decodeEnvelope decodes the shape clients
// send, and encoding/json every other body.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*Request, int, error) {
	limit := s.MaxBodyBytes
	if limit <= 0 {
		limit = 1 << 20
	}
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	ct := r.Header.Get("Content-Type")
	mt, _, _ := mime.ParseMediaType(ct)
	req := &Request{}
	switch mt {
	case "application/json":
		body, err := readBody(r, limit)
		if err != nil {
			if isBodyTooLarge(err) {
				return nil, http.StatusRequestEntityTooLarge,
					fmt.Errorf("request body exceeds the %d-byte limit", limit)
			}
			return nil, http.StatusBadRequest, fmt.Errorf("bad JSON: %w", err)
		}
		var ok bool
		if *req, ok = decodeEnvelope(body); ok {
			break
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(req); err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("bad JSON: %w", err)
		}
		if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
			return nil, http.StatusBadRequest, errors.New("bad JSON: trailing data after the request object")
		}
	case "application/x-www-form-urlencoded", "multipart/form-data":
		if err := r.ParseForm(); err != nil {
			if isBodyTooLarge(err) {
				return nil, http.StatusRequestEntityTooLarge,
					fmt.Errorf("request body exceeds the %d-byte limit", limit)
			}
			return nil, http.StatusBadRequest, fmt.Errorf("bad form: %w", err)
		}
		req.Matrix = r.PostFormValue("matrix")
		req.Fasta = r.PostFormValue("fasta")
		req.Algorithm = r.PostFormValue("algorithm")
		req.ThreeThree = r.PostFormValue("threeThree") != ""
		req.SVG = r.PostFormValue("svg") != ""
	default:
		// A silent fall-through to form parsing used to turn API misuse
		// (e.g. text/plain JSON) into a baffling "need at least 2
		// species" error; name the accepted types instead.
		return nil, http.StatusUnsupportedMediaType,
			fmt.Errorf("unsupported Content-Type %q: use application/json, application/x-www-form-urlencoded, or multipart/form-data", ct)
	}
	return req, 0, nil
}

// readBody reads the request body whole. The buffer is sized from
// Content-Length, capped at limit, so a body of the declared length is
// read without growing it.
func readBody(r *http.Request, limit int64) ([]byte, error) {
	size := int64(512)
	if r.ContentLength > 0 {
		size = min(r.ContentLength, limit) + 1 // room for the read that returns EOF
	}
	buf := make([]byte, 0, size)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

func isBodyTooLarge(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

// solveMatrix runs one construction on the canonical matrix m for the
// worker pool and returns the cache-shaped entry. ctx is
// threaded into bb.Options.Ctx and, through core.Options.BB, into every
// decomposition sub-search, so cancelling it actually stops the
// exponential work — the regression the old synchronous handler had.
func (s *Server) solveMatrix(ctx context.Context, m *matrix.Matrix, spec solveSpec, solveID string) (*solveEntry, error) {
	bbOpt := bb.DefaultOptions()
	bbOpt.MaxNodes = s.MaxNodes
	bbOpt.ThreeThree = spec.threeThree
	bbOpt.Ctx = ctx
	// Typed-nil pointers must not reach obs.Multi (a nil *Recorder inside
	// a Probe interface is non-nil), so only live components are wired.
	var probes []obs.Probe
	if s.search != nil {
		probes = append(probes, s.search)
	}
	if s.recorder != nil {
		probes = append(probes, s.recorder)
	}
	if s.bcast != nil {
		probes = append(probes, s.bcast)
	}
	// Tag every event with the solve id so SSE consumers can follow one
	// job's telemetry through the shared stream.
	bbOpt.Probe = obs.JobTag(obs.Multi(probes...), solveID)
	bbOpt.GapPeriod = s.GapPeriod

	e := &solveEntry{algorithm: spec.algorithm, species: m.Len(), complete: true}
	start := time.Now()
	switch spec.algorithm {
	case "compact":
		opt := core.Options{
			UseCompactSets: true,
			Reduction:      compact.Maximum,
			Workers:        s.Workers,
			BB:             bbOpt,
		}
		res, err := core.Construct(m, opt)
		if err != nil {
			return nil, err
		}
		e.cost = res.Cost
		e.tree = res.Tree
		e.feasible = res.Tree.Feasible(m, 1e-9)
		e.complete = res.Optimal
		e.expanded = res.Stats.Expanded
		for _, set := range res.CompactSets {
			e.compactSets = append(e.compactSets, append([]int(nil), set...))
		}
	case "bb":
		res, err := bb.Solve(m, bbOpt)
		if err != nil {
			return nil, err
		}
		e.cost = res.Cost
		e.tree = res.Tree
		e.feasible = res.Tree.Feasible(m, 1e-9)
		e.complete = res.Optimal
		e.expanded = res.Stats.Expanded
	case "upgma", "upgmm":
		link := upgma.Average
		if spec.algorithm == "upgmm" {
			link = upgma.Maximum
		}
		t := upgma.Build(m, link)
		t.SetNames(m.Names())
		e.cost = t.Cost()
		e.tree = t
		e.feasible = t.Feasible(m, 1e-9)
	default:
		return nil, fmt.Errorf("unknown algorithm %q (want compact|bb|upgma|upgmm)", spec.algorithm)
	}
	elapsed := time.Since(start)
	e.solveMS = float64(elapsed.Microseconds()) / 1000
	// A search the context cut short is partial: the deadline fired or
	// every waiter disconnected. Distinguished from a MaxNodes truncation
	// (complete=false, partial=false), which is deterministic and
	// cacheable.
	e.partial = !e.complete && ctx != nil && ctx.Err() != nil
	if s.builds != nil {
		s.builds.With(spec.algorithm).Inc()
		s.buildS.With(spec.algorithm).Observe(elapsed.Seconds())
	}
	return e, nil
}

// renderResponse projects a canonical entry onto one request's species
// names. The entry's tree is cloned before naming: entries are shared
// across requests and cached, so they must stay immutable.
func renderResponse(e *solveEntry, names []string, svg bool) *Response {
	resp := &Response{
		Species:   e.species,
		Algorithm: e.algorithm,
		Cost:      e.cost,
		Feasible:  e.feasible,
		Complete:  e.complete && !e.partial,
		Partial:   e.partial,
		ElapsedMS: e.solveMS,
		Expanded:  e.expanded,
	}
	if e.tree != nil {
		t := e.tree.Clone()
		t.SetNames(names)
		resp.Newick = t.Newick()
		resp.Ascii = t.Ascii()
		if svg {
			resp.SVG = t.SVG()
		}
	}
	for _, set := range e.compactSets {
		named := make([]string, len(set))
		for i, v := range set {
			named[i] = names[v]
		}
		resp.CompactSets = append(resp.CompactSets, named)
	}
	return resp
}

// handleDebugSearch serves the flight recorder's JSON dump: the last K
// telemetry events of every recent search, ordered by arrival.
func (s *Server) handleDebugSearch(w http.ResponseWriter, _ *http.Request) {
	if s.recorder == nil {
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("flight recorder not initialized"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = s.recorder.WriteJSON(w)
}

// handleEvents streams live search telemetry as Server-Sent Events. Each
// event is one JSON object in the flight-recorder rendering; the event
// name is the obs kind (gap_sample, ub_improved, ...). Only the
// convergence signal is forwarded — pool/steal traffic would swamp a
// browser. A slow client just misses events (the broadcaster drops rather
// than stall a search). With ?job=<solve id> the stream is filtered to
// that solve's events, so a client watches its own job converge.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.streamEvents(w, r, r.URL.Query().Get("job"), nil)
}

// streamEvents is the shared SSE pump. A non-empty job forwards only
// events tagged with that solve id; a non-nil until channel ends the
// stream once it closes AND the solve's terminal event was forwarded.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, job string, until <-chan struct{}) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	if s.bcast == nil {
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("event broadcaster not initialized"))
		return
	}
	ch, cancel := s.bcast.Subscribe(256)
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, ": connected\n\n")
	fl.Flush()
	keepalive := time.NewTicker(15 * time.Second)
	defer keepalive.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-until:
			// The watched job finished before (or without) emitting a
			// terminal event we forwarded — e.g. a cancelled queue entry.
			fmt.Fprint(w, "event: job_done\ndata: {}\n\n")
			fl.Flush()
			return
		case <-keepalive.C:
			fmt.Fprint(w, ": keepalive\n\n")
			fl.Flush()
		case ev := <-ch:
			if job != "" && ev.Job != job {
				continue
			}
			switch ev.Kind {
			case obs.ProblemStart, obs.SearchConfig, obs.SeedBound, obs.UBImproved,
				obs.GapSample, obs.Prune, obs.ProblemFinish:
				fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Kind, obs.EventJSON(ev))
				fl.Flush()
				if job != "" && ev.Kind == obs.ProblemFinish {
					return
				}
			default:
				// Pool/steal/lifecycle chatter stays off the client stream.
			}
		}
	}
}

func (s *Server) inputMatrix(req *Request) (*matrix.Matrix, error) {
	switch {
	case req.Matrix != "" && req.Fasta != "":
		return nil, fmt.Errorf("provide either a matrix or FASTA sequences, not both")
	case req.Matrix != "":
		return matrix.ParseString(req.Matrix)
	case req.Fasta != "":
		records, err := seqsim.ReadFASTA(strings.NewReader(req.Fasta))
		if err != nil {
			return nil, err
		}
		return seqsim.MatrixFromSequences(records)
	}
	return nil, fmt.Errorf("empty input: provide a distance matrix or FASTA sequences")
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// writeJSON encodes v before it writes the status, so a value JSON cannot
// carry (a cost that overflowed to +Inf) answers 500 with an error body
// instead of a 200 with no body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		code = http.StatusInternalServerError
		buf.Reset()
		_ = json.NewEncoder(&buf).Encode(map[string]string{"error": fmt.Sprintf("encode response: %v", err)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
}

var indexTmpl = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><title>evotree — ultrametric tree construction</title>
<style>
 body { font-family: sans-serif; max-width: 56rem; margin: 2rem auto; }
 textarea { width: 100%; height: 12rem; font-family: monospace; }
 pre { background: #f4f4f4; padding: 1rem; overflow-x: auto; }
</style></head>
<body>
<h1>evotree</h1>
<p>Construct a (near-)minimum ultrametric evolutionary tree from a
distance matrix or aligned DNA sequences — the compact-set technique of
Yu et al., PaCT 2005. Limit: {{.MaxSpecies}} species.</p>
<form method="post" action="/api/tree">
 <p><label>Distance matrix (first line: species count; then
 "name d1 ... dn" rows):</label><br>
 <textarea name="matrix" placeholder="4
a 0 2 8 8
b 2 0 8 8
c 8 8 0 4
d 8 8 4 0"></textarea></p>
 <p><label>… or aligned FASTA sequences:</label><br>
 <textarea name="fasta" placeholder="&gt;a
ACGT..."></textarea></p>
 <p><label>Algorithm:
 <select name="algorithm">
  <option value="compact">compact sets + branch-and-bound (paper)</option>
  <option value="bb">exact branch-and-bound</option>
  <option value="upgmm">UPGMM heuristic</option>
  <option value="upgma">UPGMA heuristic</option>
 </select></label>
 <label><input type="checkbox" name="threeThree"> 3-3 constraint</label>
 <button type="submit">Build tree</button></p>
</form>
<p>API: <code>POST /api/tree</code> with JSON
<code>{"matrix": "...", "algorithm": "compact"}</code> or
<code>{"fasta": "..."}</code>; async: <code>POST /api/jobs</code>,
poll <code>GET /api/jobs/{id}</code>, stream
<code>GET /api/jobs/{id}/events</code>.</p>
</body></html>
`))

func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = indexTmpl.Execute(w, s)
}
