package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"evotree/internal/obs"
)

// collector is the benchmark's own obs.Probe. It stamps each event with
// its arrival time and keeps it in memory; nothing is written until the
// traced run ends.
type collector struct {
	mu     sync.Mutex
	events []stamped
}

type stamped struct {
	at time.Time
	ev obs.Event
}

func (c *collector) Emit(ev obs.Event) {
	now := time.Now()
	c.mu.Lock()
	c.events = append(c.events, stamped{now, ev})
	c.mu.Unlock()
}

// take returns the events collected so far and empties the collector.
func (c *collector) take() []stamped {
	c.mu.Lock()
	defer c.mu.Unlock()
	evs := c.events
	c.events = nil
	return evs
}

// span is one interval of the trace: a call the benchmark made into a
// layer, or a stage reconstructed from the layer's own events.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root span
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the traced run began
	End    float64 `json:"end_s"`
}

// spanLog keeps a traced run's spans in memory.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// add records a span and returns its id.
func (l *spanLog) add(parent int, name string, start, end time.Time) int {
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(l.origin).Seconds(), End: end.Sub(l.origin).Seconds()})
	return id
}

// selfSeconds returns, per span name, the summed self time: each span's
// duration minus the part of it its children cover (children may overlap,
// as concurrent subproblem solves do, so their union is subtracted).
func (l *spanLog) selfSeconds() map[string]float64 {
	children := make(map[int][]span)
	for _, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	for _, s := range l.spans {
		self[s.Name] += (s.End - s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, end := 0.0, parent.Start
	for _, x := range ivs {
		if x.a > end {
			end = x.a
		}
		if x.b > end {
			total += x.b - end
			end = x.b
		}
	}
	return total
}

// write stores the span log and the per-name self times as JSON in dir.
func (l *spanLog) write(dir string, cfg config) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	data, err := json.Marshal(map[string]any{
		"workload": cfg.workload,
		"seed":     cfg.seed,
		"self_s":   l.selfSeconds(),
		"spans":    l.spans,
	})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// finish records the span log's self times in the context line and writes
// the log when a directory was given.
func (l *spanLog) finish(cfg config, rep *report) error {
	rep.record["self_s"] = l.selfSeconds()
	rep.record["spans"] = len(l.spans)
	if cfg.spansDir == "" {
		return nil
	}
	path, err := l.write(cfg.spansDir, cfg)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	rep.record["spans_file"] = path
	return nil
}

// pbbTrace accumulates what the pbb events of several solves show about
// the scheduler.
type pbbTrace struct {
	solves     int
	master     time.Duration // summed ProblemStart → first WorkerStart
	busy, span time.Duration // summed worker time not parked, and worker phase × workers
	maxNodes   float64       // summed per-solve max WorkerFinish.Nodes
	meanNodes  float64       // summed per-solve mean WorkerFinish.Nodes
}

// addSolve reads the events of one parallel solve (and only one: pbb's
// worker ids restart at 0 in every solve) and adds spans for its master
// phase, its workers and their parked intervals under root. Times come
// from the events' Elapsed, which pbb measures from its own start, placed
// on the arrival time of ProblemStart.
func (t *pbbTrace) addSolve(evs []stamped, log *spanLog, root int) {
	var origin time.Time
	starts := map[int]time.Duration{}
	finishes := map[int]time.Duration{}
	nodes := map[int]int64{}
	parked := map[int]time.Duration{}
	parkAt := map[int]time.Duration{}
	type iv struct{ a, b time.Duration }
	parks := map[int][]iv{}
	for _, s := range evs {
		ev := s.ev
		switch ev.Kind {
		case obs.ProblemStart:
			origin = s.at
		case obs.WorkerStart:
			starts[ev.Worker] = ev.Elapsed
		case obs.Park:
			parkAt[ev.Worker] = ev.Elapsed
		case obs.WorkerDrain, obs.WorkerFinish:
			// A parked worker's next event is always a drain (it wakes,
			// finds its deque empty and looks for work) or its finish.
			if at, ok := parkAt[ev.Worker]; ok {
				parked[ev.Worker] += ev.Elapsed - at
				parks[ev.Worker] = append(parks[ev.Worker], iv{at, ev.Elapsed})
				delete(parkAt, ev.Worker)
			}
			if ev.Kind == obs.WorkerFinish {
				finishes[ev.Worker] = ev.Elapsed
				nodes[ev.Worker] = ev.Nodes
			}
		}
	}
	if len(starts) == 0 || origin.IsZero() {
		return // the master phase finished the search alone
	}
	t.solves++
	first, last := time.Duration(1<<62), time.Duration(0)
	for w, a := range starts {
		first = min(first, a)
		last = max(last, finishes[w])
	}
	t.master += first
	log.add(root, "pbb.master", origin, origin.Add(first))
	var maxN, sumN float64
	for w, a := range starts {
		b := finishes[w]
		t.busy += b - a - parked[w]
		id := log.add(root, "pbb.worker", origin.Add(a), origin.Add(b))
		for _, p := range parks[w] {
			log.add(id, "pbb.park", origin.Add(p.a), origin.Add(p.b))
		}
		n := float64(nodes[w])
		maxN = max(maxN, n)
		sumN += n
	}
	t.span += time.Duration(len(starts)) * (last - first)
	t.maxNodes += maxN
	t.meanNodes += sumN / float64(len(starts))
}

func (t *pbbTrace) into(lv layerValues) {
	if t.solves == 0 {
		return
	}
	lv["pbb.master_s"] = t.master.Seconds() / float64(t.solves)
	lv["pbb.worker_busy_frac"] = ratio(t.busy.Seconds(), t.span.Seconds())
	lv["pbb.imbalance"] = ratio(t.maxNodes, t.meanNodes)
}

// coreTrace accumulates what the pipeline events of several constructs
// show about compact-set decomposition.
type coreTrace struct {
	constructs                         int
	wall                               time.Duration
	detect, reduce, graft, solve, vald time.Duration
}

// addConstruct reads the events of one core.Construct call, whose span
// is root, and adds a child span for each stage. Stage events carry their
// duration in Elapsed and arrive when the stage ends.
func (t *coreTrace) addConstruct(evs []stamped, log *spanLog, root int, wall time.Duration) {
	t.constructs++
	t.wall += wall
	for _, s := range evs {
		ev := s.ev
		var name string
		switch {
		case ev.Kind == obs.PhaseEnd && ev.Phase == "compact-detect":
			name, t.detect = "compact.detect", t.detect+ev.Elapsed
		case ev.Kind == obs.PhaseEnd && ev.Phase == "reduce":
			name, t.reduce = "compact.reduce", t.reduce+ev.Elapsed
		case ev.Kind == obs.PhaseEnd && ev.Phase == "merge":
			name, t.graft = "compact.graft", t.graft+ev.Elapsed
		case ev.Kind == obs.PhaseEnd && ev.Phase == "validate":
			name, t.vald = "core.validate", t.vald+ev.Elapsed
		case ev.Kind == obs.SubproblemFinish:
			name, t.solve = "core.subproblem", t.solve+ev.Elapsed
		default:
			continue
		}
		log.add(root, name, s.at.Add(-ev.Elapsed), s.at)
	}
}

func (t *coreTrace) into(lv layerValues) {
	if t.constructs == 0 {
		return
	}
	per := func(d time.Duration) float64 { return d.Seconds() / float64(t.constructs) }
	lv["compact.detect_s"] = per(t.detect)
	lv["compact.reduce_s"] = per(t.reduce)
	lv["compact.graft_s"] = per(t.graft)
	lv["core.subproblem_solve_s"] = per(t.solve)
	lv["core.validate_s"] = per(t.vald)
	lv["core.detect_share"] = ratio(t.detect.Seconds(), t.wall.Seconds())
}
