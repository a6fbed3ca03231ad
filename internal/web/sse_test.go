package web

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestDebugSearchSnapshot checks GET /debug/search: after one build the
// flight recorder serves a parseable JSON dump containing the search's
// events.
func TestDebugSearchSnapshot(t *testing.T) {
	s := NewServer()
	h := s.Handler()
	if _, resp := postJSON(t, h, `{"matrix":`+jsonString(sampleMatrix)+`,"algorithm":"bb"}`); resp == nil {
		t.Fatal("build failed")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/search", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("debug/search: %d\n%s", rec.Code, rec.Body.String())
	}
	var doc struct {
		Total  uint64           `json:"total"`
		Events []map[string]any `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, rec.Body.String())
	}
	if doc.Total == 0 || len(doc.Events) == 0 {
		t.Fatalf("recorder captured nothing: total=%d events=%d", doc.Total, len(doc.Events))
	}
	kinds := map[string]bool{}
	for _, ev := range doc.Events {
		if k, ok := ev["kind"].(string); ok {
			kinds[k] = true
		}
	}
	for _, want := range []string{"problem_start", "problem_finish", "prune", "gap_sample"} {
		if !kinds[want] {
			t.Errorf("dump missing %q events (saw %v)", want, kinds)
		}
	}
}

// TestEventsSSEStream drives the live progress stream end to end: a
// subscriber on GET /api/events sees the convergence events — including
// GapSample and the batched per-rule Prune flushes — of a build running
// concurrently, framed as well-formed SSE.
func TestEventsSSEStream(t *testing.T) {
	s := NewServer()
	s.GapPeriod = time.Millisecond
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", srv.URL+"/api/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	// Wait for the handler goroutine to register its subscription before
	// solving, so the build's events cannot race past an empty broadcaster.
	deadline := time.Now().Add(5 * time.Second)
	for s.bcast.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("SSE handler never subscribed")
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan error, 1)
	go func() {
		body, _ := json.Marshal(Request{Matrix: sampleMatrix, Algorithm: "bb"})
		resp, err := http.Post(srv.URL+"/api/tree", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("POST /api/tree: status %d", resp.StatusCode)
			}
		}
		done <- err
	}()

	want := map[string]bool{"problem_start": false, "gap_sample": false,
		"prune": false, "problem_finish": false}
	sc := bufio.NewScanner(resp.Body)
	var lastEvent string
	for sc.Scan() && ctx.Err() == nil {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			lastEvent = strings.TrimPrefix(line, "event: ")
			if _, ok := want[lastEvent]; ok {
				want[lastEvent] = true
			}
		case strings.HasPrefix(line, "data: "):
			var ev map[string]any
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("SSE data is not valid JSON: %v\n%s", err, line)
			}
			if k, _ := ev["kind"].(string); k != lastEvent {
				t.Fatalf("data kind %q does not match event name %q", k, lastEvent)
			}
		}
		if want["problem_start"] && want["gap_sample"] && want["prune"] && want["problem_finish"] {
			break
		}
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("never saw %q on the stream", k)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("build failed: %v", err)
	}
	cancel() // unblocks the handler; srv.Close waits for it
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
