package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestRecorderWraparound drives one stripe past its capacity and checks
// the ring keeps exactly the last perStripe events, with Total still
// counting every emission and Snapshot returning arrival order.
func TestRecorderWraparound(t *testing.T) {
	r := NewRecorder(1, 4)
	for i := 0; i < 10; i++ {
		r.Emit(Event{Kind: PoolPut, Worker: 0, Nodes: int64(i)})
	}
	if got := r.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	evs := r.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("Snapshot returned %d events, want 4 (ring capacity)", len(evs))
	}
	for i, ev := range evs {
		// Events 7..10 (1-based seq) survive; Nodes carries 6..9.
		if want := uint64(7 + i); ev.Seq != want {
			t.Errorf("event %d: seq = %d, want %d", i, ev.Seq, want)
		}
		if want := int64(6 + i); ev.Nodes != want {
			t.Errorf("event %d: nodes = %d, want %d", i, ev.Nodes, want)
		}
	}
}

// TestRecorderStriping checks worker isolation: a chatty worker flooding
// its own stripe cannot evict another worker's (or the master's) history.
func TestRecorderStriping(t *testing.T) {
	r := NewRecorder(4, 2)
	r.Emit(Event{Kind: ProblemStart, Worker: MasterWorker}) // stripe 0
	r.Emit(Event{Kind: PoolPut, Worker: 1})                 // stripe 2
	for i := 0; i < 100; i++ {
		r.Emit(Event{Kind: PoolPut, Worker: 0}) // floods stripe 1
	}
	var master, w1 int
	for _, ev := range r.Snapshot() {
		switch ev.Worker {
		case MasterWorker:
			master++
		case 1:
			w1++
		}
	}
	if master != 1 || w1 != 1 {
		t.Fatalf("flooded recorder kept master=%d w1=%d events, want 1 each", master, w1)
	}
}

// TestRecorderDumpJSON checks the dump is valid JSON with the documented
// envelope, renders non-finite floats as null, and is deterministic: two
// recorders fed the same event sequence dump byte-identical documents.
func TestRecorderDumpJSON(t *testing.T) {
	feed := func(r *Recorder) {
		r.Emit(Event{Kind: ProblemStart, Worker: MasterWorker, N: 8})
		r.Emit(Event{Kind: SeedBound, Worker: MasterWorker, Value: math.Inf(1)})
		r.Emit(Event{Kind: GapSample, Worker: MasterWorker, Value: 42.5,
			BestLB: math.Inf(1), Gap: math.NaN(), Rate: 1000, Frontier: 3, Nodes: 7})
		for i := 0; i < 40; i++ { // force drops
			r.Emit(Event{Kind: PoolPut, Worker: 0})
		}
	}
	a, b := NewRecorder(2, 8), NewRecorder(2, 8)
	feed(a)
	feed(b)
	da, db := a.DumpJSON(), b.DumpJSON()
	if da != db {
		t.Fatalf("same event sequence produced different dumps:\n%s\nvs\n%s", da, db)
	}
	var doc struct {
		Total   uint64           `json:"total"`
		Dropped uint64           `json:"dropped"`
		Events  []map[string]any `json:"events"`
	}
	if err := json.Unmarshal([]byte(da), &doc); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, da)
	}
	if doc.Total != 43 {
		t.Fatalf("total = %d, want 43", doc.Total)
	}
	if int(doc.Dropped) != 43-len(doc.Events) {
		t.Fatalf("dropped = %d with %d events retained of %d total",
			doc.Dropped, len(doc.Events), doc.Total)
	}
	for _, ev := range doc.Events {
		if ev["kind"] == "gap_sample" {
			if ev["best_lb"] != nil || ev["gap"] != nil {
				t.Fatalf("non-finite best_lb/gap must render as null, got %v / %v",
					ev["best_lb"], ev["gap"])
			}
			if ev["rate"] != 1000.0 || ev["frontier"] != 3.0 {
				t.Fatalf("gap_sample lost finite fields: %v", ev)
			}
		}
	}
}

// TestEventJSON checks the SSE rendering: same object shape as the
// recorder dump but without a sequence number.
func TestEventJSON(t *testing.T) {
	s := EventJSON(Event{Kind: UBImproved, Worker: 2, Value: 17.25, Nodes: 5})
	if strings.Contains(s, `"seq"`) {
		t.Fatalf("EventJSON must omit seq: %s", s)
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(s), &ev); err != nil {
		t.Fatalf("EventJSON is not valid JSON: %v\n%s", err, s)
	}
	if ev["kind"] != "ub_improved" || ev["worker"] != 2.0 || ev["value"] != 17.25 {
		t.Fatalf("EventJSON lost fields: %s", s)
	}
}

// TestRecorderConcurrentEmit hammers the recorder from many goroutines
// (run under -race) and checks the global sequence stays consistent: every
// emission counted, snapshot sequences strictly increasing and unique.
func TestRecorderConcurrentEmit(t *testing.T) {
	const workers, per = 8, 500
	r := NewRecorder(4, 64)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Emit(Event{Kind: PoolPut, Worker: w, Nodes: int64(i)})
			}
		}(w)
	}
	wg.Wait()
	if got := r.Total(); got != workers*per {
		t.Fatalf("Total = %d, want %d", got, workers*per)
	}
	evs := r.Snapshot()
	seen := make(map[uint64]bool, len(evs))
	for i, ev := range evs {
		if ev.Seq == 0 || ev.Seq > workers*per {
			t.Fatalf("event %d: sequence %d out of range", i, ev.Seq)
		}
		if seen[ev.Seq] {
			t.Fatalf("duplicate sequence %d in snapshot", ev.Seq)
		}
		seen[ev.Seq] = true
		if i > 0 && evs[i-1].Seq >= ev.Seq {
			t.Fatalf("snapshot not sorted: seq %d before %d", evs[i-1].Seq, ev.Seq)
		}
	}
}
