package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Recorder is the flight recorder: a Probe that keeps the last K events
// per stripe in fixed-size ring buffers, so a crashed, truncated, or
// misbehaving search can be triaged from the evidence it left behind
// instead of a rerun. Stripes are selected by worker id (the master and
// sequential engines land on stripe 0), so one chatty worker cannot evict
// another worker's history; each stripe has its own mutex, so concurrent
// workers rarely contend. Memory is bounded at stripes × perStripe events
// for the life of the recorder — it never grows and never allocates on
// Emit.
type Recorder struct {
	stripes []recStripe
	mask    uint64
	seq     atomic.Uint64 // global sequence for total cross-stripe ordering
}

type recStripe struct {
	mu      sync.Mutex
	ring    []RecordedEvent
	written uint64 // total events ever written to this stripe
}

// RecordedEvent is one event with its global arrival sequence number.
type RecordedEvent struct {
	Seq uint64
	Event
}

// NewRecorder returns a recorder with the given stripe count (rounded up
// to a power of two, minimum 1) keeping the last perStripe events per
// stripe (minimum 1). NewRecorder(16, 64) — a ~1000-event window — is a
// reasonable production default.
func NewRecorder(stripes, perStripe int) *Recorder {
	if perStripe < 1 {
		perStripe = 1
	}
	n := 1
	for n < stripes {
		n <<= 1
	}
	r := &Recorder{stripes: make([]recStripe, n), mask: uint64(n - 1)}
	for i := range r.stripes {
		r.stripes[i].ring = make([]RecordedEvent, perStripe)
	}
	return r
}

// Emit implements Probe. Safe for concurrent use; never allocates.
func (r *Recorder) Emit(ev Event) {
	seq := r.seq.Add(1)
	w := ev.Worker + 1 // MasterWorker (-1) lands on stripe 0
	if w < 0 {
		w = -w
	}
	st := &r.stripes[uint64(w)&r.mask]
	st.mu.Lock()
	st.ring[st.written%uint64(len(st.ring))] = RecordedEvent{Seq: seq, Event: ev}
	st.written++
	st.mu.Unlock()
}

// Total returns the number of events ever emitted to the recorder,
// including those the rings have already evicted.
func (r *Recorder) Total() uint64 { return r.seq.Load() }

// Snapshot copies the retained events out of every stripe and returns
// them sorted by arrival sequence (oldest first). The copy is taken
// stripe by stripe, so a snapshot under concurrent emission is a
// consistent ring per stripe, not a global atomic cut.
func (r *Recorder) Snapshot() []RecordedEvent {
	var out []RecordedEvent
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		k := uint64(len(st.ring))
		lo := uint64(0)
		if st.written > k {
			lo = st.written - k
		}
		for s := lo; s < st.written; s++ {
			out = append(out, st.ring[s%k])
		}
		st.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// WriteJSON dumps the retained events as one JSON document:
//
//	{"total": 1234, "dropped": 210, "events": [...]}
//
// where total counts every event ever emitted and dropped the ones the
// rings evicted. Events are ordered by arrival sequence. Non-finite
// floats (an infinite seed bound, a +Inf BestLB on an exhausted frontier)
// render as JSON null, so the dump always parses.
func (r *Recorder) WriteJSON(w io.Writer) error {
	events := r.Snapshot()
	total := r.Total()
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"total":%d,"dropped":%d,"events":[`, total, total-uint64(len(events)))
	for i := range events {
		if i > 0 {
			b.WriteByte(',')
		}
		events[i].appendJSON(&b)
	}
	b.WriteString("]}\n")
	_, err := w.Write(b.Bytes())
	return err
}

// DumpJSON returns WriteJSON's output as a string (empty on error —
// writing to a bytes.Buffer cannot fail).
func (r *Recorder) DumpJSON() string {
	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		return ""
	}
	return b.String()
}

// EventJSON renders one event as the recorder's JSON object (without a
// sequence number, which starts at 1 inside a recorder). Non-finite
// floats render as null. Used by the SSE progress stream so live and
// recorded events share one wire format.
func EventJSON(ev Event) string {
	var b bytes.Buffer
	re := RecordedEvent{Event: ev}
	re.appendJSON(&b)
	return b.String()
}

// appendJSON renders one event with stable field order and zero-valued
// optional fields omitted — the dump is deterministic for a deterministic
// event sequence, which the recorder tests rely on.
func (e *RecordedEvent) appendJSON(b *bytes.Buffer) {
	b.WriteByte('{')
	if e.Seq != 0 {
		fmt.Fprintf(b, `"seq":%d,`, e.Seq)
	}
	fmt.Fprintf(b, `"kind":%q,"worker":%d`, e.Kind.String(), e.Worker)
	if e.Value != 0 {
		b.WriteString(`,"value":`)
		appendJSONFloat(b, e.Value)
	}
	if e.Nodes != 0 {
		fmt.Fprintf(b, `,"nodes":%d`, e.Nodes)
	}
	if e.N != 0 {
		fmt.Fprintf(b, `,"n":%d`, e.N)
	}
	if e.Phase != "" {
		fmt.Fprintf(b, `,"phase":%q`, e.Phase)
	}
	if e.Job != "" {
		fmt.Fprintf(b, `,"job":%q`, e.Job)
	}
	if e.Elapsed != 0 {
		fmt.Fprintf(b, `,"elapsed_ms":%s`,
			strconv.FormatFloat(float64(e.Elapsed.Microseconds())/1000, 'f', 3, 64))
	}
	if e.Kind == GapSample {
		b.WriteString(`,"best_lb":`)
		appendJSONFloat(b, e.BestLB)
		b.WriteString(`,"gap":`)
		appendJSONFloat(b, e.Gap)
		b.WriteString(`,"rate":`)
		appendJSONFloat(b, e.Rate)
		fmt.Fprintf(b, `,"frontier":%d`, e.Frontier)
	}
	b.WriteByte('}')
}

func appendJSONFloat(b *bytes.Buffer, v float64) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		b.WriteString("null")
		return
	}
	b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
}
