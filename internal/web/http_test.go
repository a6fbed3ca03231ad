package web

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestBodyLimit413: a payload over MaxBodyBytes is rejected with 413 on
// both the JSON and form paths.
func TestBodyLimit413(t *testing.T) {
	s := NewServer()
	s.MaxBodyBytes = 256
	h := s.Handler()
	defer s.Close()

	big, _ := json.Marshal(Request{Matrix: strings.Repeat("x", 1024)})
	req := httptest.NewRequest("POST", "/api/tree", strings.NewReader(string(big)))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("JSON: status = %d, want 413: %s", rec.Code, rec.Body.String())
	}

	form := "matrix=" + strings.Repeat("9", 1024)
	req = httptest.NewRequest("POST", "/api/tree", strings.NewReader(form))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("form: status = %d, want 413: %s", rec.Code, rec.Body.String())
	}

	// Under the limit still works.
	small, _ := json.Marshal(Request{Matrix: sampleMatrix})
	req = httptest.NewRequest("POST", "/api/tree", strings.NewReader(string(small)))
	req.Header.Set("Content-Type", "application/json")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("small body: status = %d: %s", rec.Code, rec.Body.String())
	}
}

// TestUnsupportedContentType415: unknown Content-Types are rejected with
// a 415 naming the accepted types, instead of the old silent form-parse
// fall-through that produced a baffling matrix error.
func TestUnsupportedContentType415(t *testing.T) {
	h := NewServer().Handler()
	body, _ := json.Marshal(Request{Matrix: sampleMatrix})
	for _, ct := range []string{"text/plain", "application/xml", ""} {
		req := httptest.NewRequest("POST", "/api/tree", strings.NewReader(string(body)))
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusUnsupportedMediaType {
			t.Fatalf("CT %q: status = %d, want 415: %s", ct, rec.Code, rec.Body.String())
		}
		if !strings.Contains(rec.Body.String(), "application/json") {
			t.Fatalf("CT %q: error must name the accepted types: %s", ct, rec.Body.String())
		}
	}
	// Parameters on an accepted type are fine.
	req := httptest.NewRequest("POST", "/api/tree", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json; charset=utf-8")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("json with charset: status = %d: %s", rec.Code, rec.Body.String())
	}
}

// TestHandlerIdempotent: calling Handler twice must return the same
// wired-up pipeline — same broadcaster, same solver, no duplicate metric
// registration — instead of silently orphaning the first recorder and its
// SSE subscribers.
func TestHandlerIdempotent(t *testing.T) {
	s := NewServer()
	h1 := s.Handler()
	bcast1, solver1, rec1 := s.bcast, s.solver, s.recorder
	h2 := s.Handler()
	defer s.Close()
	if s.bcast != bcast1 || s.solver != solver1 || s.recorder != rec1 {
		t.Fatal("second Handler() call rebuilt the pipeline")
	}

	// Both returned handlers serve the same mux: a build through h2 is
	// visible in metrics scraped through h1.
	body, _ := json.Marshal(Request{Matrix: sampleMatrix, Algorithm: "bb"})
	req := httptest.NewRequest("POST", "/api/tree", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h2.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("build via h2: %d", rec.Code)
	}
	if got := metricValue(t, scrapeMetrics(t, h1), `evoweb_builds_total{algorithm="bb"}`); got != 1 {
		t.Fatalf("builds counter = %v, want 1", got)
	}

	// The exposition must not contain duplicate metric families.
	exp := scrapeMetrics(t, h1)
	if n := strings.Count(exp, "# HELP evoweb_builds_total "); n != 1 {
		t.Fatalf("evoweb_builds_total registered %d times", n)
	}
	if n := strings.Count(exp, "# HELP evoweb_cache_hits_total "); n != 1 {
		t.Fatalf("evoweb_cache_hits_total registered %d times", n)
	}
}

// TestNonFiniteMatrix422: a matrix with an infinite distance is rejected
// with 422 by every algorithm — UPGMA and UPGMM used to panic on a solver
// goroutine and take the server down — and the server answers the next
// request.
func TestNonFiniteMatrix422(t *testing.T) {
	s := NewServer()
	h := s.Handler()
	defer s.Close()
	const inf = "4\na 0 2 8 Inf\nb 2 0 8 8\nc 8 8 0 4\nd Inf 8 4 0\n"
	for _, algo := range []string{"compact", "bb", "upgma", "upgmm"} {
		body, _ := json.Marshal(Request{Matrix: inf, Algorithm: algo})
		rec, _ := postJSON(t, h, string(body))
		if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(rec.Body.String(), `"matrix: non-finite distance at (0,3): +Inf"`) {
			t.Fatalf("%s: status %d, body %s; want 422 naming the cell", algo, rec.Code, rec.Body.String())
		}
	}
	body, _ := json.Marshal(Request{Matrix: sampleMatrix, Algorithm: "upgmm"})
	if rec, resp := postJSON(t, h, string(body)); resp == nil {
		t.Fatalf("next request: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestUnencodableResult500: a finite matrix whose optimal cost overflows
// to +Inf cannot be written as JSON; the server answers 500 with an error
// body instead of a 200 with an empty one.
func TestUnencodableResult500(t *testing.T) {
	h := NewServer().Handler()
	const huge = "3\na 0 1e308 1.7e308\nb 1e308 0 1.7e308\nc 1.7e308 1.7e308 0\n"
	for _, algo := range []string{"compact", "bb"} {
		body, _ := json.Marshal(Request{Matrix: huge, Algorithm: algo})
		rec, _ := postJSON(t, h, string(body))
		var e map[string]string
		if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &e) != nil || !strings.Contains(e["error"], "+Inf") {
			t.Fatalf("%s: status %d, body %q; want 500 with a JSON error", algo, rec.Code, rec.Body.String())
		}
	}
}

// TestJSONBodyShape: the object must be the whole body, bar white space;
// keys follow encoding/json (unknown ones are rejected, case variants
// match).
func TestJSONBodyShape(t *testing.T) {
	h := NewServer().Handler()
	obj, _ := json.Marshal(Request{Matrix: sampleMatrix})
	for _, c := range []struct {
		body string
		want int
	}{
		{string(obj) + " trailing", http.StatusBadRequest},
		{string(obj) + string(obj), http.StatusBadRequest},
		{string(obj) + "}", http.StatusBadRequest},
		{string(obj) + " \n", http.StatusOK},
		{string(obj) + "\n", http.StatusOK},
		{`{"matrx":"2\na 0 1\nb 1 0\n"}`, http.StatusBadRequest},
		{`{"Matrix":"2\na 0 1\nb 1 0\n"}`, http.StatusOK},
	} {
		if rec, _ := postJSON(t, h, c.body); rec.Code != c.want {
			t.Errorf("body %q: status %d, want %d: %s", c.body, rec.Code, c.want, rec.Body.String())
		}
	}
}
