package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"evotree/internal/bb"
)

// ErrJobGone reports that the coordinator answered 410: it is not serving
// the job the worker joined (typically because the coordinator restarted
// under a fresh job id). The worker exits cleanly instead of retrying.
var ErrJobGone = errors.New("dist: job gone")

// WorkerOptions configure one worker process/goroutine.
type WorkerOptions struct {
	// Name identifies the worker to the coordinator (per-worker stats).
	Name string
	// Client issues the HTTP requests; http.DefaultClient when nil.
	Client *http.Client
	// Poll is the idle sleep between lease attempts when the coordinator
	// answers Wait, and between retries of transient errors. Default 50ms.
	Poll time.Duration
	// StepDelay throttles the solver: sleep this long per node expansion.
	// Zero (the default) runs full speed; tests and demo farms use it to
	// keep units in flight long enough to kill workers mid-solve.
	StepDelay time.Duration
}

// worker is the client side of the protocol: one joined job.
type worker struct {
	base  string
	opt   WorkerOptions
	job   jobInfo
	p     *bb.Problem // nil when the job has no search (1 species)
	np    *bb.NodePool
	ub    atomic.Uint64 // the incumbent bound, float64 bits
	epoch atomic.Uint64
}

// RunWorker joins the coordinator at baseURL and solves leased units until
// the job is done, the job disappears (nil is returned for both — a
// vanished job means a restarted coordinator, which this worker cannot
// help), or ctx is cancelled.
func RunWorker(ctx context.Context, baseURL string, opt WorkerOptions) error {
	if opt.Name == "" {
		opt.Name = "worker"
	}
	if opt.Client == nil {
		opt.Client = http.DefaultClient
	}
	if opt.Poll <= 0 {
		opt.Poll = 50 * time.Millisecond
	}
	w := &worker{base: strings.TrimRight(baseURL, "/"), opt: opt}
	if err := w.join(ctx); err != nil {
		if errors.Is(err, ErrJobGone) {
			return nil
		}
		return err
	}

	// The bound watcher long-polls the epoch-stamped bound and refreshes
	// the local atomic mirror, so the solver hot loop reads the freshest
	// incumbent without ever blocking on the network.
	watchCtx, stopWatch := context.WithCancel(ctx)
	defer stopWatch()
	go w.watchBounds(watchCtx)

	return w.leaseLoop(ctx)
}

// join fetches the job description and rebuilds the coordinator's
// problem. The matrix travels as round-trip floats, so the rebuilt
// problem derives the same max–min permutation and bit-identical bounds.
func (w *worker) join(ctx context.Context) error {
	if err := w.getJSON(ctx, pathJob, nil, &w.job); err != nil {
		return err
	}
	if w.job.Matrix != nil {
		m, err := w.job.Matrix.toMatrix()
		if err != nil {
			return err
		}
		if w.p, err = bb.NewProblem(m, w.job.UseMaxMin); err != nil {
			return err
		}
		w.np = w.p.NewPool()
	}
	w.ub.Store(math.Float64bits(w.job.Bound))
	w.epoch.Store(w.job.Epoch)
	return nil
}

// applyBound folds a bound snapshot into the local mirror. Bounds only
// ever tighten, so stale snapshots (reordered responses) are harmless.
func (w *worker) applyBound(epoch uint64, bound float64) {
	for {
		cur := w.ub.Load()
		if math.Float64frombits(cur) <= bound || w.ub.CompareAndSwap(cur, math.Float64bits(bound)) {
			break
		}
	}
	for {
		cur := w.epoch.Load()
		if cur >= epoch || w.epoch.CompareAndSwap(cur, epoch) {
			break
		}
	}
}

// bound returns the freshest known incumbent.
func (w *worker) bound() float64 {
	return math.Float64frombits(w.ub.Load())
}

// watchBounds long-polls GET /v1/bounds. Errors are retried after Poll;
// the watcher exits when the job finishes or disappears, or ctx ends.
func (w *worker) watchBounds(ctx context.Context) {
	for ctx.Err() == nil {
		var resp boundsResponse
		q := url.Values{"job": {w.job.Job}, "epoch": {strconv.FormatUint(w.epoch.Load(), 10)}}
		if err := w.getJSON(ctx, pathBounds, q, &resp); err != nil {
			if errors.Is(err, ErrJobGone) || ctx.Err() != nil {
				return
			}
			sleep(ctx, w.opt.Poll)
			continue
		}
		w.applyBound(resp.Epoch, resp.Bound)
		if resp.Done {
			return
		}
	}
}

// leaseLoop acquires and solves units until the coordinator reports the
// job done. Transient transport errors back off and retry; a 410 means
// this worker's job no longer exists and the loop exits cleanly.
func (w *worker) leaseLoop(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var lease leaseResponse
		err := w.postJSON(ctx, pathLease, leaseRequest{Job: w.job.Job, Worker: w.opt.Name}, &lease)
		switch {
		case errors.Is(err, ErrJobGone):
			return nil
		case err != nil:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			sleep(ctx, w.opt.Poll)
			continue
		case lease.Done:
			return nil
		case lease.Wait:
			sleep(ctx, w.opt.Poll)
			continue
		}
		w.applyBound(lease.Epoch, lease.Bound)
		result, err := w.solveUnit(ctx, lease)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		var ack resultResponse
		for attempt := 0; ; attempt++ {
			err = w.postJSON(ctx, pathResult, result, &ack)
			if err == nil || errors.Is(err, ErrJobGone) || ctx.Err() != nil || attempt >= 4 {
				break
			}
			sleep(ctx, w.opt.Poll)
		}
		if errors.Is(err, ErrJobGone) {
			return nil
		}
		if err == nil {
			w.applyBound(ack.Epoch, ack.Bound)
		}
	}
}

// solveUnit replays the unit's seed path and runs the depth-first
// branch-and-bound below it against the shared incumbent mirror. The seed
// node is not counted as a root — the coordinator generated it during
// slicing, so the farm-wide ledger balances with the coordinator's single
// root. The unit keeps only its best solution: each one is
// published synchronously via POST /v1/bound before the search continues,
// so sibling workers re-prune as early as possible, and it rides along in
// the result only when the coordinator has not acknowledged it, so it is
// offered once and a lost broadcast cannot lose the optimum.
func (w *worker) solveUnit(ctx context.Context, lease leaseResponse) (resultRequest, error) {
	res := resultRequest{Job: w.job.Job, Worker: w.opt.Name, Unit: lease.Unit, Seq: lease.Seq}
	p, np := w.p, w.np
	if p == nil {
		return res, errors.New("dist: lease for a job with no search")
	}
	seed, err := p.WalkPath(lease.Path, np)
	if err != nil {
		return res, fmt.Errorf("dist: unit %d seed: %w", lease.Unit, err)
	}

	st := &bb.Step{P: p, Pool: np, Stats: &res.Stats,
		Opt: bb.Options{Constraints: w.job.Constraints, Propagate: w.job.Propagate, Ctx: ctx}}
	if lease.Limited {
		st.Budget = new(atomic.Int64)
		st.Budget.Store(lease.Budget)
	}
	var bestPath []int
	bestCost := math.Inf(1)
	published := false // the coordinator acknowledged bestPath
	bound := func() float64 { return math.Min(w.bound(), bestCost) }
	openLB := math.Inf(1)
	var iter int64
	stack := []*bb.PNode{seed}
	for len(stack) > 0 {
		if len(stack) > res.Stats.MaxPoolLen {
			res.Stats.MaxPoolLen = len(stack)
		}
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		iter++
		var children []*bb.PNode
		ok := iter%256 != 1 || ctx.Err() == nil
		if ok {
			expanded := res.Stats.Expanded
			children, ok = st.Run(v, bound())
			if res.Stats.Expanded > expanded && w.opt.StepDelay > 0 {
				sleep(ctx, w.opt.StepDelay)
			}
		}
		if !ok {
			// Cancelled or out of budget: abandon v and the rest of the
			// unit as budget prunes; their best LB is the proof floor.
			res.Truncated = true
			res.Stats.CountBudgetPrune(int64(len(stack)) + 1)
			for _, o := range append(stack, v) {
				openLB = math.Min(openLB, o.LB)
				np.Put(o)
			}
			break
		}
		for i := len(children) - 1; i >= 0; i-- {
			ch := children[i]
			switch {
			case bb.Prunes(ch.LB, bound(), false):
				res.Stats.CountIncumbentPrune(1)
				np.Put(ch)
			case ch.Complete(p):
				// Pruned against bound(), a complete child always beats
				// bestCost.
				res.Stats.Completed++
				bestPath, bestCost = ch.Path(), ch.Cost
				published = w.publish(ctx, bestPath, bestCost)
				np.Put(ch)
			default:
				stack = append(stack, ch)
			}
		}
	}
	if res.Truncated && !math.IsInf(openLB, 1) {
		res.HasOpen, res.OpenLB = true, openLB
	}
	if bestPath != nil && !published {
		res.Best = &wireSolution{Path: bestPath, Cost: bestCost}
	}
	return res, nil
}

// publish offers a unit's new best solution to the coordinator when it
// beats the freshest known bound, and reports whether the coordinator
// acknowledged it. A failed publish is tolerated: the worker keeps
// pruning against the solution locally, and the caller sends it with the
// unit's result instead.
func (w *worker) publish(ctx context.Context, path []int, cost float64) bool {
	if cost >= w.bound() {
		return false
	}
	var ack boundsResponse
	err := w.postJSON(ctx, pathBound, boundRequest{
		Job: w.job.Job, Worker: w.opt.Name,
		Solution: wireSolution{Path: path, Cost: cost},
	}, &ack)
	if err != nil {
		w.applyBound(w.epoch.Load(), cost)
		return false
	}
	w.applyBound(ack.Epoch, ack.Bound)
	return true
}

// getJSON GETs path?query and decodes the response.
func (w *worker) getJSON(ctx context.Context, path string, query url.Values, out any) error {
	u := w.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	return w.do(req, out)
}

// postJSON POSTs a JSON body to path and decodes the response.
func (w *worker) postJSON(ctx context.Context, path string, body any, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, jsonBody(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return w.do(req, out)
}

func (w *worker) do(req *http.Request, out any) error {
	resp, err := w.opt.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusGone:
		io.Copy(io.Discard, resp.Body)
		return ErrJobGone
	case resp.StatusCode != http.StatusOK:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("dist: %s %s: %s: %s", req.Method, req.URL.Path, resp.Status, strings.TrimSpace(string(msg)))
	}
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(out)
}

// jsonBody marshals a wire value into a request body.
func jsonBody(v any) io.Reader {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire types always marshal
	}
	return bytes.NewReader(b)
}

// sleep waits for d or until ctx is done, whichever is first.
func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
