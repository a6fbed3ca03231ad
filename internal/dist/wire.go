// Package dist is the distributed solve farm: a coordinator process that
// slices one minimum-ultrametric-tree instance into work units and
// leases them to worker processes over a small HTTP/JSON protocol, plus
// the worker loop itself. It turns the paper's "16-node Linux cluster"
// setting into a real multi-process engine: the coordinator slices
// frontier batches off the whole-matrix branch-and-bound pool, workers
// solve units against the shared incumbent bound, and the coordinator
// broadcasts every strict bound improvement as an epoch-stamped update
// so workers lazily re-prune — the networked analogue of the in-process
// scheduler's atomic epoch. The compact-set decomposition runs in
// process (internal/core), not here.
//
// # Wire format
//
// Work units and incumbent solutions both travel as insertion paths
// (bb.Path/bb.WalkPath): a unit is the positions that rebuild its seed
// node, a solution is the full-length path of a complete topology plus
// its claimed cost. The receiving side replays the path and recomputes
// every bound itself, so a malformed or dishonest message can be
// rejected outright and the shared bound can never be poisoned below a
// realizable cost. The messages carry no version: coordinator and
// workers must come from one build.
//
// # Fault tolerance
//
// Leases carry deadlines and sequence numbers. A crashed or hung
// worker's unit is returned to the queue when its deadline lapses, and
// results are accepted only when their sequence number matches the
// unit's current lease — so a unit is folded into the search statistics
// exactly once no matter how often it is re-leased, and the accounting
// identity (Generated + Roots == Expanded + Pruned + Completed) holds
// across the whole farm. Late results from expired leases still offer
// their solution to the incumbent (bounds only tighten; the offer is
// idempotent) but contribute no statistics.
//
// # Budget
//
// A positive MaxNodes is one budget for the whole farm. Each lease
// reserves all that is left of it, and the accepted result refunds what
// the unit did not spend, so leases never expand more than the budget
// between them. While live leases hold all of it, a lease request is
// told to wait for a refund: under a budget the units run one at a time.
// A lapsed lease's grant is written off, since its holder may still be
// spending it.
package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"

	"evotree/internal/bb"
	"evotree/internal/matrix"
)

// Protocol endpoints, all rooted under the coordinator's base URL.
const (
	pathJob    = "/v1/job"    // GET: job description (matrix, options)
	pathLease  = "/v1/lease"  // POST: acquire a work-unit lease
	pathResult = "/v1/result" // POST: report a finished unit
	pathBound  = "/v1/bound"  // POST: offer an incumbent improvement
	pathBounds = "/v1/bounds" // GET: long-poll the epoch-stamped bound
)

// wireMatrix ships the distance matrix. Distances travel as JSON numbers
// (Go encodes float64 with strconv's shortest round-trip form), so the
// worker reconstructs a bit-identical matrix and both sides derive the
// same max–min permutation and the same bounds.
type wireMatrix struct {
	Names []string    `json:"names"`
	D     [][]float64 `json:"d"`
}

func toWireMatrix(m *matrix.Matrix) *wireMatrix {
	n := m.Len()
	d := make([][]float64, n)
	for i := 0; i < n; i++ {
		d[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			d[i][j] = m.At(i, j)
		}
	}
	return &wireMatrix{Names: m.Names(), D: d}
}

func (w wireMatrix) toMatrix() (*matrix.Matrix, error) {
	n := len(w.D)
	if n == 0 || len(w.Names) != n {
		return nil, fmt.Errorf("dist: matrix: %d rows, %d names", n, len(w.Names))
	}
	m, err := matrix.NewWithNames(w.Names)
	if err != nil {
		return nil, fmt.Errorf("dist: matrix: %w", err)
	}
	for i := range w.D {
		if len(w.D[i]) != n {
			return nil, fmt.Errorf("dist: matrix: row %d has %d entries, want %d", i, len(w.D[i]), n)
		}
		for j := range w.D[i] {
			m.Set(i, j, w.D[i][j])
		}
	}
	return m, nil
}

// jobInfo is the GET /v1/job response: everything a worker needs to
// rebuild the coordinator's bb.Problem deterministically. Matrix is nil
// for a 1-species input, which has no search.
type jobInfo struct {
	Job         string         `json:"job"`
	UseMaxMin   bool           `json:"use_max_min"`
	Constraints bb.Constraints `json:"constraints"`
	Propagate   bool           `json:"propagate"`
	Matrix      *wireMatrix    `json:"matrix,omitempty"`
	LeaseTTLMS  int64          `json:"lease_ttl_ms"`
	Epoch       uint64         `json:"epoch"`
	Bound       float64        `json:"bound"`
}

// leaseRequest asks for a work unit.
type leaseRequest struct {
	Job    string `json:"job"`
	Worker string `json:"worker"`
}

// leaseResponse grants a unit (or reports there is nothing to do).
type leaseResponse struct {
	// Done: every unit is finished; the worker can exit.
	Done bool `json:"done,omitempty"`
	// Wait: nothing leasable right now (every pending unit is held by
	// someone else, or live leases hold the whole budget); poll again
	// shortly.
	Wait bool `json:"wait,omitempty"`

	Unit int    `json:"unit"`
	Seq  uint64 `json:"seq"`
	Path []int  `json:"path"`
	// Limited caps the unit's expansions at Budget, the share of
	// MaxNodes the coordinator reserved for this lease; an exhausted
	// budget arrives as Limited with Budget 0 and makes the worker
	// abandon the unit as a budget prune.
	Limited bool  `json:"limited,omitempty"`
	Budget  int64 `json:"budget,omitempty"`

	Epoch uint64  `json:"epoch"`
	Bound float64 `json:"bound"`
}

// wireSolution is a complete topology as an insertion path plus the
// sender's claimed cost. The receiver replays the path and trusts only
// its own arithmetic.
type wireSolution struct {
	Path []int   `json:"path"`
	Cost float64 `json:"cost"`
}

// resultRequest reports a finished (or budget-truncated) unit.
type resultRequest struct {
	Job    string `json:"job"`
	Worker string `json:"worker"`
	Unit   int    `json:"unit"`
	Seq    uint64 `json:"seq"`
	// Truncated: the unit's expansion budget ran out; OpenLB carries the
	// best lower bound among the abandoned nodes when HasOpen is set
	// (+Inf is not JSON-encodable, so absence means "none open").
	Truncated bool     `json:"truncated,omitempty"`
	HasOpen   bool     `json:"has_open,omitempty"`
	OpenLB    float64  `json:"open_lb,omitempty"`
	Stats     bb.Stats `json:"stats"`
	// Best is the cheapest complete topology the unit found, if any.
	// Normally already published via POST /v1/bound; carried here too so
	// a lost broadcast cannot lose the optimum.
	Best *wireSolution `json:"best,omitempty"`
}

// resultResponse acknowledges a result.
type resultResponse struct {
	// Accepted: the unit was open under this exact lease and its
	// statistics were folded into the farm totals. A false value means
	// the lease was stale (expired, superseded, duplicate) — the work is
	// discarded except for any solution it carried.
	Accepted bool    `json:"accepted"`
	Reason   string  `json:"reason,omitempty"`
	Epoch    uint64  `json:"epoch"`
	Bound    float64 `json:"bound"`
}

// boundRequest offers an incumbent improvement.
type boundRequest struct {
	Job      string       `json:"job"`
	Worker   string       `json:"worker"`
	Solution wireSolution `json:"solution"`
}

// boundsResponse is the long-poll payload: the incumbent bound stamped
// with its epoch.
type boundsResponse struct {
	Epoch uint64  `json:"epoch"`
	Done  bool    `json:"done,omitempty"`
	Bound float64 `json:"bound"`
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// maxBodyBytes caps a request body. The largest legitimate body, a
// result carrying a 64-species insertion path and its Stats, is a few KB.
const maxBodyBytes = 1 << 20

// readJSON decodes the request body into v: one JSON value of at most
// maxBodyBytes, followed by nothing but JSON white space. On failure it
// returns the status to answer: 413 for an oversized body, else 400.
func readJSON(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return http.StatusRequestEntityTooLarge,
				fmt.Errorf("dist: request body exceeds the %d-byte limit", maxBodyBytes)
		}
		return http.StatusBadRequest, err
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return http.StatusBadRequest, err
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		return http.StatusBadRequest, errors.New("dist: trailing data after JSON body")
	}
	return 0, nil
}

// validCost reports whether a claimed solution cost is a usable bound.
func validCost(c float64) bool {
	return !math.IsNaN(c) && !math.IsInf(c, 0) && c >= 0
}
