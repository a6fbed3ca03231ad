package web

import (
	"container/list"
	"fmt"
	"net/http"
	"sync"
	"time"

	"evotree/internal/obs"
)

// The asynchronous job API. POST /api/jobs admits a solve through the
// same cache/coalescer/queue pipeline as the synchronous endpoint and
// returns a job id immediately; the client polls GET /api/jobs/{id} (or
// streams GET /api/jobs/{id}/events) and may DELETE the job to cancel
// its interest — if it was the last waiter, the underlying search stops.
//
// A job is a named reference onto a solver task. Several jobs can share
// one task (coalescing); cancelling one job detaches one reference.

type jobState string

const (
	jobQueued   jobState = "queued"
	jobRunning  jobState = "running"
	jobDone     jobState = "done"
	jobFailed   jobState = "failed"
	jobCanceled jobState = "canceled"
)

// job is one client-visible handle on a solve.
type job struct {
	id      string
	t       *task
	names   []string // the submitting request's names in canonical order
	svg     bool
	created time.Time

	mu       sync.Mutex
	detached bool // DELETE already released the task reference
}

// jobStatus is the JSON shape of GET /api/jobs/{id}.
type jobStatus struct {
	ID      string   `json:"id"`
	State   jobState `json:"state"`
	SolveID string   `json:"solveId,omitempty"` // telemetry tag for ?job= SSE filtering
	Error   string   `json:"error,omitempty"`
	// Result is present once State is done (and, flagged partial, when a
	// deadline truncated the search).
	Result    *Response `json:"result,omitempty"`
	CreatedAt time.Time `json:"createdAt"`
}

// jobStore retains jobs by id with bounded retention: when more than max
// jobs exist, the oldest finished ones are evicted first (a finished job
// that was never polled ages out; queued/running jobs are never evicted).
type jobStore struct {
	mu      sync.Mutex
	jobs    map[string]*job
	order   *list.List // insertion order; front = oldest
	max     int
	nextID  int64
	created *obs.Counter
	evicted *obs.Counter
}

func newJobStore(max int, reg *obs.Registry) *jobStore {
	if max < 1 {
		max = 1
	}
	return &jobStore{
		jobs:    make(map[string]*job),
		order:   list.New(),
		max:     max,
		created: reg.Counter("evoweb_jobs_total", "Jobs created via POST /api/jobs."),
		evicted: reg.Counter("evoweb_jobs_evicted_total", "Finished jobs evicted by the retention bound."),
	}
}

func (js *jobStore) add(j *job) string {
	js.mu.Lock()
	js.nextID++
	j.id = fmt.Sprintf("j%d", js.nextID)
	js.jobs[j.id] = j
	js.order.PushBack(j.id)
	// Evict oldest *finished* jobs over the bound; scan from the front so
	// retention cost stays O(evictions).
	for len(js.jobs) > js.max {
		evicted := false
		for el := js.order.Front(); el != nil; {
			next := el.Next()
			id := el.Value.(string)
			cand, ok := js.jobs[id]
			if !ok {
				js.order.Remove(el)
				el = next
				continue
			}
			if cand.t.state.Load() == taskDone {
				delete(js.jobs, id)
				js.order.Remove(el)
				js.evicted.Inc()
				evicted = true
				break
			}
			el = next
		}
		if !evicted {
			break // everything retained is still live; allow temporary overshoot
		}
	}
	js.mu.Unlock()
	js.created.Inc()
	return j.id
}

func (js *jobStore) get(id string) (*job, bool) {
	js.mu.Lock()
	j, ok := js.jobs[id]
	js.mu.Unlock()
	return j, ok
}

// status snapshots a job for the polling endpoint.
func (j *job) status() jobStatus {
	st := jobStatus{ID: j.id, SolveID: j.t.id, CreatedAt: j.created}
	j.mu.Lock()
	canceled := j.detached
	j.mu.Unlock()
	switch j.t.state.Load() {
	case taskQueued:
		st.State = jobQueued
		if canceled {
			st.State = jobCanceled
		}
	case taskRunning:
		st.State = jobRunning
		if canceled {
			st.State = jobCanceled
		}
	case taskDone:
		switch {
		case j.t.err != nil && canceled:
			st.State = jobCanceled
			st.Error = j.t.err.Error()
		case j.t.err != nil:
			st.State = jobFailed
			st.Error = j.t.err.Error()
		default:
			st.State = jobDone
			st.Result = renderResponse(j.t.entry, j.names, j.svg)
			st.Result.Cached = j.t.cancel == nil
		}
	}
	return st
}

// detachOnce releases the job's task reference exactly once; returns
// whether this call did the release.
func (j *job) detachOnce(s *solver) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.detached {
		return false
	}
	j.detached = true
	s.detach(j.t)
	return true
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
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
	t, err := s.solver.submit(pr.key, pr.m, pr.perm, pr.spec)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err)
		return
	}
	j := &job{t: t, names: pr.names, svg: pr.svg, created: time.Now()}
	id := s.jobs.add(j)
	// The job holds the task reference until it finishes or is DELETEd;
	// release it in the background on completion so abandoned-but-not-
	// cancelled jobs don't pin the context forever.
	go func() {
		<-t.done
		j.detachOnce(s.solver)
	}()
	w.Header().Set("Location", "/api/jobs/"+id)
	writeJSON(w, http.StatusAccepted, map[string]string{
		"id": id, "solveId": t.id, "status": "/api/jobs/" + id,
	})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	// Drop this job's interest in the solve. If it was the last reference
	// the task context is cancelled and the search stops; if other
	// requests are coalesced onto it, they keep it alive.
	j.detachOnce(s.solver)
	writeJSON(w, http.StatusOK, j.status())
}

// handleJobEvents streams the job's telemetry: the shared SSE stream
// filtered to the job's solve id, ending when the job completes.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	if j.t.cancel == nil {
		// Cache hit: the solve already happened; there is nothing to stream.
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, "event: job_done\ndata: {}\n\n")
		return
	}
	s.streamEvents(w, r, j.t.id, j.t.done)
}
