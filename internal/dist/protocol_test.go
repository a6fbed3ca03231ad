package dist

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"evotree/internal/bb"
	"evotree/internal/matrix"
)

// TestBoundOfferValidation: malformed, dishonest, incomplete, and worse
// incumbent offers must all bounce off the coordinator without moving the
// bound; only a replay-verified improvement tightens it.
func TestBoundOfferValidation(t *testing.T) {
	// Seed 66 leaves the master's UPGMM-derived incumbent strictly above
	// the optimum, so the honest offer below is a real improvement.
	m := matrix.Random0100(rand.New(rand.NewSource(66)), 8)
	c, srv, want := startFarm(t, m, Options{Workers: 2, BB: bb.DefaultOptions()})

	ub0 := c.inc.Bound()
	epoch0 := c.inc.Epoch()
	if ub0 <= want {
		t.Fatalf("test premise broken: master incumbent %v already at/below optimum %v", ub0, want)
	}
	offer := func(sol wireSolution) (int, resultResponse) {
		var out resultResponse
		code, _ := postAs(t, srv.URL, pathBound, boundRequest{Job: c.Job(), Worker: "adv", Solution: sol}, nil)
		return code, out
	}

	// Find a genuinely optimal full path by sequential solve + replay so
	// the test has one honest solution to play with.
	p, err := bb.NewProblem(m, true)
	if err != nil {
		t.Fatal(err)
	}
	np := p.NewPool()
	var optimal []int
	var optCost float64
	var walk func(v *bb.PNode) bool
	walk = func(v *bb.PNode) bool {
		if v.Complete(p) {
			if v.Cost == want {
				optimal, optCost = v.Path(), v.Cost
				return true
			}
			return false
		}
		for pos := 0; pos < v.Positions(); pos++ {
			ch, err := p.Child(v, pos, np)
			if err != nil {
				t.Fatal(err)
			}
			if ch.LB <= want && walk(ch) {
				return true
			}
		}
		return false
	}
	if !walk(p.Root()) {
		t.Fatal("could not find an optimal path")
	}

	cases := []struct {
		name string
		sol  wireSolution
	}{
		{"garbage path", wireSolution{Path: []int{0, 99, 3}, Cost: optCost}},
		{"incomplete path", wireSolution{Path: optimal[:len(optimal)-1], Cost: optCost}},
		{"dishonest cost", wireSolution{Path: optimal, Cost: optCost / 2}},
		{"negative cost", wireSolution{Path: optimal, Cost: -1}},
	}
	for _, tc := range cases {
		code, _ := offer(tc.sol)
		if code != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422", tc.name, code)
		}
	}
	// A NaN cost cannot even be expressed in JSON; the raw token is a
	// decode error, rejected before any solver state is touched.
	resp, err := http.Post(srv.URL+pathBound, "application/json",
		strings.NewReader(`{"job":"`+c.Job()+`","worker":"adv","solution":{"path":[0],"cost":NaN}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("NaN cost: status %d, want 400", resp.StatusCode)
	}
	if got := c.inc.Bound(); got != ub0 {
		t.Fatalf("invalid offers moved the bound: %v -> %v", ub0, got)
	}
	if got := c.inc.Epoch(); got != epoch0 {
		t.Fatalf("invalid offers bumped the epoch: %d -> %d", epoch0, got)
	}

	// The honest optimum is accepted and bumps the epoch exactly once,
	// no matter how often it is replayed (duplicate broadcasts are
	// idempotent), and a worse-but-valid solution after it is a silent
	// no-op.
	for i := 0; i < 3; i++ {
		if code, _ := offer(wireSolution{Path: optimal, Cost: optCost}); code != http.StatusOK {
			t.Fatalf("honest offer #%d: status %d", i, code)
		}
	}
	if got := c.inc.Bound(); got != want {
		t.Fatalf("bound after honest offer: %v, want %v", got, want)
	}
	if got := c.inc.Epoch(); got != epoch0+1 {
		t.Errorf("epoch after 3 identical honest offers: %d, want %d", got, epoch0+1)
	}
}

// TestMalformedRequests: syntactically broken bodies, unknown fields and
// anything but white space after the value are 400s; a body over
// maxBodyBytes is a 413; unknown units are 400s; a stale-epoch long-poll
// answers immediately with the current bound instead of blocking.
func TestMalformedRequests(t *testing.T) {
	m := matrix.Random0100(rand.New(rand.NewSource(52)), 8)
	c, srv, _ := startFarm(t, m, Options{Workers: 1, BB: bb.DefaultOptions()})

	lease := `{"job":"` + c.Job() + `","worker":"w"}`
	for _, tc := range []struct {
		body string
		want int
	}{
		{"{", http.StatusBadRequest},
		{`{"job": 7}`, http.StatusBadRequest},
		{`{"job":"x","bogus":1}`, http.StatusBadRequest},
		{`{"job":"x"} trailing`, http.StatusBadRequest},
		{lease + `}`, http.StatusBadRequest},
		{lease + `]`, http.StatusBadRequest},
		{lease + " \t\r\n", http.StatusOK},
		{`{"job":"` + c.Job() + `","worker":"` + strings.Repeat("w", maxBodyBytes) + `"}`,
			http.StatusRequestEntityTooLarge},
	} {
		resp, err := http.Post(srv.URL+pathLease, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("lease body %.40q: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}

	var ack resultResponse
	code, err := postAs(t, srv.URL, pathResult,
		resultRequest{Job: c.Job(), Worker: "w", Unit: 12345, Seq: 1}, &ack)
	if err != nil || code != http.StatusBadRequest {
		t.Errorf("unknown unit: code=%d err=%v, want 400", code, err)
	}

	// Long-poll with a lagging epoch: must answer immediately.
	startedAt := time.Now()
	resp, err := http.Get(srv.URL + pathBounds + "?job=" + c.Job() + "&epoch=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("bounds poll: status %d", resp.StatusCode)
	}
	if elapsed := time.Since(startedAt); c.inc.Epoch() > 0 && elapsed > time.Second {
		t.Errorf("stale-epoch poll blocked for %v", elapsed)
	}
}

// TestJobGoneAfterRestart: a worker that joined one coordinator and then
// talks to its replacement (fresh job id, as after a coordinator restart)
// must get a clean 410 on every endpoint and exit its loop without error
// — it can never corrupt the new job's state.
func TestJobGoneAfterRestart(t *testing.T) {
	m := matrix.Random0100(rand.New(rand.NewSource(53)), 9)
	cOld, err := NewCoordinator(m, Options{Workers: 1, BB: bb.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	cNew, err := NewCoordinator(m, Options{Workers: 1, BB: bb.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if cOld.Job() == cNew.Job() {
		t.Fatal("restarted coordinator reused the job id")
	}

	// One server, swappable handler: the "restart".
	var handler atomic.Value
	handler.Store(cOld.Handler())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer srv.Close()

	// Worker joins the old job...
	w := &worker{base: srv.URL, opt: WorkerOptions{Name: "w", Client: http.DefaultClient, Poll: time.Millisecond}}
	if err := w.join(context.Background()); err != nil {
		t.Fatal(err)
	}
	if w.job.Job != cOld.Job() {
		t.Fatalf("joined %q, want %q", w.job.Job, cOld.Job())
	}

	// ...the coordinator restarts...
	handler.Store(cNew.Handler())

	// ...and every endpoint the worker uses answers 410 for the old job.
	var lease leaseResponse
	code, _ := postAs(t, srv.URL, pathLease, leaseRequest{Job: cOld.Job(), Worker: "w"}, &lease)
	if code != http.StatusGone {
		t.Errorf("lease for dead job: status %d, want 410", code)
	}
	code, _ = postAs(t, srv.URL, pathResult, resultRequest{Job: cOld.Job(), Worker: "w", Unit: 0, Seq: 1}, nil)
	if code != http.StatusGone {
		t.Errorf("result for dead job: status %d, want 410", code)
	}
	code, _ = postAs(t, srv.URL, pathBound, boundRequest{Job: cOld.Job(), Worker: "w"}, nil)
	if code != http.StatusGone {
		t.Errorf("bound for dead job: status %d, want 410", code)
	}
	resp, err := http.Get(srv.URL + pathBounds + "?job=" + cOld.Job() + "&epoch=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Errorf("bounds for dead job: status %d, want 410", resp.StatusCode)
	}

	// The worker's lease loop sees the 410 and exits cleanly (nil error):
	// reconnecting workers cannot poison or stall the new job.
	if err := w.leaseLoop(context.Background()); err != nil {
		t.Errorf("reconnecting worker should exit cleanly, got %v", err)
	}

	// The new job is untouched and still solvable end to end.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go RunWorker(ctx, srv.URL, WorkerOptions{Name: "fresh", Poll: time.Millisecond})
	res, err := cNew.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := bb.Solve(m, bb.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.Cost != seq.Cost {
		t.Errorf("new job corrupted: cost=%v optimal=%v, want %v", res.Cost, res.Optimal, seq.Cost)
	}
	snap := snapshot(cNew)
	if snap.Stale != 0 {
		t.Errorf("old-job traffic leaked into the new job's counters: %+v", snap)
	}
}
