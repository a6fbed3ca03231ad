package web

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"evotree/internal/matrix"
)

// hardMatrix returns a matrix whose exact search runs effectively forever
// under an unbounded node budget — only cancellation can stop it.
func hardMatrix(t *testing.T, n int) string {
	t.Helper()
	return matrix.Random0100(rand.New(rand.NewSource(7)), n).String()
}

// waitStats polls the solver stats until cond holds or the deadline
// passes; reports the last snapshot either way.
func waitStats(s *Server, d time.Duration, cond func(SolverStats) bool) (SolverStats, bool) {
	deadline := time.Now().Add(d)
	for {
		st := s.Stats()
		if cond(st) {
			return st, true
		}
		if time.Now().After(deadline) {
			return st, false
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClientDisconnectCancelsSearch is the regression test for the
// service's headline bug: the old synchronous handler never threaded the
// request context into bb.Options.Ctx, so a search whose client had hung
// up kept burning CPU to MaxNodes. Now the solve context is refcounted
// across waiters and cancelled when the last one disconnects; the search
// must stop within 500ms of the disconnect (the bb cancellation gate
// fires every 1024 expansions, orders of magnitude faster than that).
func TestClientDisconnectCancelsSearch(t *testing.T) {
	s := NewServer()
	s.MaxNodes = 1 << 60 // no node budget: only cancellation can stop the search
	s.SolveTimeout = time.Hour
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer s.Close()

	body, _ := json.Marshal(Request{Matrix: hardMatrix(t, 20), Algorithm: "bb"})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", srv.URL+"/api/tree", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()

	// Wait until the solve is actually executing in a worker.
	if st, ok := waitStats(s, 5*time.Second, func(st SolverStats) bool { return st.Active == 1 }); !ok {
		t.Fatalf("solve never started: %+v", st)
	}

	cancel() // client disconnects
	<-done
	disconnect := time.Now()

	st, ok := waitStats(s, 500*time.Millisecond, func(st SolverStats) bool { return st.Active == 0 })
	if !ok {
		t.Fatalf("search still running %v after client disconnect: %+v",
			time.Since(disconnect), st)
	}
	// The timing-dependent truncated result must not have been cached.
	if st.Cached != 0 {
		t.Fatalf("partial result was cached: %+v", st)
	}
}

// TestServerDeadlineReturns503Partial: a solve that outlives SolveTimeout
// is cut at the deadline and answered with 503 plus the incumbent flagged
// partial — and the timing-dependent result is not cached.
func TestServerDeadlineReturns503Partial(t *testing.T) {
	s := NewServer()
	s.MaxNodes = 1 << 60
	s.SolveTimeout = 50 * time.Millisecond
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer s.Close()

	body, _ := json.Marshal(Request{Matrix: hardMatrix(t, 20), Algorithm: "bb"})
	resp, err := http.Post(srv.URL+"/api/tree", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	var r Response
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	if !r.Partial || r.Complete {
		t.Fatalf("deadline-cut response not flagged partial: %+v", r)
	}
	if r.Newick == "" {
		t.Fatal("partial response must still carry the incumbent tree")
	}
	if st := s.Stats(); st.Cached != 0 {
		t.Fatalf("partial result was cached: %+v", st)
	}
}

// TestFullQueueAnswers429: with the one worker solving and the depth-1
// queue holding the next solve, both request paths shed a further
// distinct matrix with 429 and Retry-After: 1 instead of queueing it.
func TestFullQueueAnswers429(t *testing.T) {
	s := NewServer()
	s.JobWorkers, s.QueueDepth = 1, 1
	s.MaxNodes = 1 << 60 // no node budget: only cancellation can stop a solve
	s.SolveTimeout = time.Hour
	h := s.Handler()
	defer s.Close()

	post := func(path string, n int) *httptest.ResponseRecorder {
		body, _ := json.Marshal(Request{Matrix: hardMatrix(t, n), Algorithm: "bb"})
		req := httptest.NewRequest("POST", path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	if rec := post("/api/jobs", 20); rec.Code != http.StatusAccepted {
		t.Fatalf("first job: %d %s", rec.Code, rec.Body)
	}
	if st, ok := waitStats(s, 5*time.Second, func(st SolverStats) bool { return st.Active == 1 }); !ok {
		t.Fatalf("first solve never started: %+v", st)
	}
	if rec := post("/api/jobs", 21); rec.Code != http.StatusAccepted {
		t.Fatalf("second job: %d %s", rec.Code, rec.Body)
	}
	for _, path := range []string{"/api/tree", "/api/jobs"} {
		rec := post(path, 22)
		if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") != "1" {
			t.Errorf("POST %s with a full queue: %d, Retry-After %q; want 429 and 1",
				path, rec.Code, rec.Header().Get("Retry-After"))
		}
	}
	if st := s.Stats(); st.Shed != 2 {
		t.Errorf("shed counter %d, want 2", st.Shed)
	}
}
