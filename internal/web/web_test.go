package web

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"evotree/internal/matrix"
)

const sampleMatrix = `4
a 0 2 8 8
b 2 0 8 8
c 8 8 0 4
d 8 8 4 0
`

func postJSON(t *testing.T, h http.Handler, body string) (*httptest.ResponseRecorder, *Response) {
	t.Helper()
	req := httptest.NewRequest("POST", "/api/tree", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return rec, nil
	}
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON response: %v\n%s", err, rec.Body.String())
	}
	return rec, &resp
}

func TestIndexAndHealth(t *testing.T) {
	h := NewServer().Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "evotree") {
		t.Fatalf("index: %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
}

func TestBuildFromMatrixJSON(t *testing.T) {
	h := NewServer().Handler()
	body, _ := json.Marshal(Request{Matrix: sampleMatrix})
	rec, resp := postJSON(t, h, string(body))
	if resp == nil {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Species != 4 || resp.Cost != 11 || !resp.Feasible || !resp.Complete {
		t.Fatalf("resp = %+v", resp)
	}
	if !strings.Contains(resp.Newick, "a:") || !strings.Contains(resp.Ascii, "└─") {
		t.Fatalf("tree renderings missing: %+v", resp)
	}
	if len(resp.CompactSets) != 2 {
		t.Fatalf("compact sets = %v", resp.CompactSets)
	}
}

func TestBuildAlgorithms(t *testing.T) {
	h := NewServer().Handler()
	for _, algo := range []string{"compact", "bb", "upgma", "upgmm"} {
		body, _ := json.Marshal(Request{Matrix: sampleMatrix, Algorithm: algo})
		rec, resp := postJSON(t, h, string(body))
		if resp == nil {
			t.Fatalf("%s: status %d: %s", algo, rec.Code, rec.Body.String())
		}
		if resp.Algorithm != algo || resp.Newick == "" {
			t.Fatalf("%s: %+v", algo, resp)
		}
	}
}

func TestBuildFromFasta(t *testing.T) {
	h := NewServer().Handler()
	fasta := ">a\nACGTACGT\n>b\nACGTACGA\n>c\nTTTTACGT\n"
	body, _ := json.Marshal(Request{Fasta: fasta})
	rec, resp := postJSON(t, h, string(body))
	if resp == nil {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Species != 3 {
		t.Fatalf("species = %d", resp.Species)
	}
}

func TestBuildFromForm(t *testing.T) {
	h := NewServer().Handler()
	form := url.Values{"matrix": {sampleMatrix}, "algorithm": {"upgmm"}, "threeThree": {"on"}}
	req := httptest.NewRequest("POST", "/api/tree", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("form post: %d %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "upgmm") {
		t.Fatalf("missing algorithm echo: %s", rec.Body.String())
	}
}

func TestRejections(t *testing.T) {
	s := NewServer()
	s.MaxSpecies = 4
	h := s.Handler()
	cases := []Request{
		{},                                     // empty
		{Matrix: "garbage"},                    // malformed matrix
		{Matrix: sampleMatrix, Fasta: ">a\nA"}, // both inputs
		{Matrix: "1\na 0\n"},                   // too few species
		{Matrix: sampleMatrix, Algorithm: "nj-magic"},
		{Fasta: ">a\nAC\n>b\nA\n"}, // ragged alignment
	}
	for i, c := range cases {
		body, _ := json.Marshal(c)
		rec, _ := postJSON(t, h, string(body))
		if rec.Code == http.StatusOK {
			t.Errorf("case %d: want rejection, got 200", i)
		}
	}
	// Over the species limit.
	big := Request{Matrix: "5\na 0 1 1 1 1\nb 1 0 1 1 1\nc 1 1 0 1 1\nd 1 1 1 0 1\ne 1 1 1 1 0\n"}
	body, _ := json.Marshal(big)
	rec, _ := postJSON(t, h, string(body))
	if rec.Code == http.StatusOK {
		t.Error("species limit not enforced")
	}
	// Bad JSON.
	rec2, _ := postJSON(t, h, "{")
	if rec2.Code != http.StatusBadRequest {
		t.Errorf("bad JSON: %d", rec2.Code)
	}
}

func TestMaxNodesMarksIncomplete(t *testing.T) {
	s := NewServer()
	s.MaxNodes = 1
	// A uniform random metric needs far more than one expansion.
	m := matrix.Random0100(rand.New(rand.NewSource(3)), 12).String()
	body, _ := json.Marshal(Request{Matrix: m, Algorithm: "bb"})
	rec, resp := postJSON(t, s.Handler(), string(body))
	if resp == nil {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if resp.Complete {
		t.Fatal("1-node cap must mark the search incomplete")
	}
	if resp.Newick == "" {
		t.Fatal("incomplete search must still return the incumbent tree")
	}
}

// scrapeMetrics fetches /metrics and returns the exposition body.
func scrapeMetrics(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	return rec.Body.String()
}

// metricValue parses one sample line ("name{labels} value") out of the
// exposition, proving the output is machine-readable.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, series+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, series+" "), 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("series %q not found in:\n%s", series, body)
	return 0
}

func TestMetricsEndpoint(t *testing.T) {
	h := NewServer().Handler()
	// Two successful builds and one malformed request.
	for i := 0; i < 2; i++ {
		body, _ := json.Marshal(Request{Matrix: sampleMatrix, Algorithm: "bb"})
		if rec, resp := postJSON(t, h, string(body)); resp == nil {
			t.Fatalf("build %d failed: %d", i, rec.Code)
		}
	}
	postJSON(t, h, "{") // 400

	body := scrapeMetrics(t, h)
	if got := metricValue(t, body, `evoweb_requests_total{route="/api/tree",code="200"}`); got != 2 {
		t.Fatalf("200 counter = %v, want 2", got)
	}
	if got := metricValue(t, body, `evoweb_requests_total{route="/api/tree",code="400"}`); got != 1 {
		t.Fatalf("400 counter = %v, want 1", got)
	}
	if got := metricValue(t, body, `evoweb_request_seconds_count{route="/api/tree"}`); got != 3 {
		t.Fatalf("latency histogram count = %v, want 3", got)
	}
	// The second identical request is a cache hit: only one search ran.
	if got := metricValue(t, body, `evoweb_builds_total{algorithm="bb"}`); got != 1 {
		t.Fatalf("builds counter = %v, want 1 (second request cached)", got)
	}
	if got := metricValue(t, body, "evoweb_cache_hits_total"); got != 1 {
		t.Fatalf("cache hits = %v, want 1", got)
	}
	// The scrape itself is instrumented, so it sees itself in flight.
	if got := metricValue(t, body, "evoweb_in_flight_requests"); got != 1 {
		t.Fatalf("in-flight gauge = %v, want 1 (the scrape)", got)
	}
	// The search probe fed the registry: one bb solve started.
	if got := metricValue(t, body, "evotree_searches_total"); got != 1 {
		t.Fatalf("searches counter = %v, want 1", got)
	}
	// The /metrics scrape itself is instrumented on the next scrape.
	body = scrapeMetrics(t, h)
	if got := metricValue(t, body, `evoweb_requests_total{route="/metrics",code="200"}`); got < 1 {
		t.Fatalf("metrics route not instrumented: %v", got)
	}
}

func TestMiddlewareRecords4xx5xx(t *testing.T) {
	s := NewServer()
	s.MaxSpecies = 4
	h := s.Handler()
	// 422: over the species limit (a semantic rejection).
	big, _ := json.Marshal(Request{Matrix: "5\na 0 1 1 1 1\nb 1 0 1 1 1\nc 1 1 0 1 1\nd 1 1 1 0 1\ne 1 1 1 1 0\n"})
	if rec, _ := postJSON(t, h, string(big)); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("want 422, got %d", rec.Code)
	}
	// 400: malformed JSON.
	postJSON(t, h, "not json")

	body := scrapeMetrics(t, h)
	if got := metricValue(t, body, `evoweb_requests_total{route="/api/tree",code="422"}`); got != 1 {
		t.Fatalf("422 counter = %v, want 1", got)
	}
	if got := metricValue(t, body, `evoweb_requests_total{route="/api/tree",code="400"}`); got != 1 {
		t.Fatalf("400 counter = %v, want 1", got)
	}
}

func TestAccessLogWiredThroughHandler(t *testing.T) {
	var buf bytes.Buffer
	s := NewServer()
	s.Logger = slog.New(slog.NewTextHandler(&buf, nil))
	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if !strings.Contains(buf.String(), "path=/healthz") || !strings.Contains(buf.String(), "status=200") {
		t.Fatalf("access log missing request: %s", buf.String())
	}
}

func TestSVGInResponse(t *testing.T) {
	h := NewServer().Handler()
	body, _ := json.Marshal(Request{Matrix: sampleMatrix, SVG: true})
	rec, resp := postJSON(t, h, string(body))
	if resp == nil {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.HasPrefix(resp.SVG, "<svg") {
		t.Fatalf("SVG missing: %q", resp.SVG)
	}
	// Without the flag the field stays empty.
	body, _ = json.Marshal(Request{Matrix: sampleMatrix})
	_, resp = postJSON(t, h, string(body))
	if resp.SVG != "" {
		t.Fatal("unrequested SVG present")
	}
}
