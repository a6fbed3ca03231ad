package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"testing"
	"time"

	"evotree/internal/bb"
	"evotree/internal/matrix"
)

// postAs sends a wire request as a raw client, so tests can play the role
// of a misbehaving or crashed worker.
func postAs(t *testing.T, base, path string, body any, out any) (int, error) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// startFarm stands up a coordinator with an httptest server and returns
// both plus the sequential reference cost.
func startFarm(t *testing.T, m *matrix.Matrix, opt Options) (*Coordinator, *httptest.Server, float64) {
	t.Helper()
	seq, err := bb.Solve(m, bb.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return c, srv, seq.Cost
}

// snapshot returns c's scheduling counters at this instant.
func snapshot(c *Coordinator) FarmStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.farmStatsLocked()
}

// TestStalledLeaseRequeue: a worker leases a unit and goes silent. The
// lease must lapse, the unit must be re-leased to a live worker, the
// search must still terminate with the proven sequential optimum, and the
// zombie's eventual late report must be rejected without double-counting.
func TestStalledLeaseRequeue(t *testing.T) {
	m := matrix.Random0100(rand.New(rand.NewSource(41)), 9)
	opt := Options{Workers: 2, LeaseTTL: 40 * time.Millisecond, BB: bb.DefaultOptions()}
	c, srv, want := startFarm(t, m, opt)
	if c.Units() == 0 {
		t.Fatal("test needs a farm with units")
	}

	// The zombie takes a lease and never works on it.
	var zombie leaseResponse
	if code, err := postAs(t, srv.URL, pathLease, leaseRequest{Job: c.Job(), Worker: "zombie"}, &zombie); err != nil || code != http.StatusOK {
		t.Fatalf("zombie lease: code=%d err=%v", code, err)
	}
	if zombie.Done || zombie.Wait {
		t.Fatalf("zombie got no unit: %+v", zombie)
	}
	time.Sleep(2 * opt.LeaseTTL) // let the lease lapse

	// A live worker drains the farm, including the zombie's unit.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- RunWorker(ctx, srv.URL, WorkerOptions{Name: "rescuer", Poll: time.Millisecond}) }()
	res, err := c.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("rescuer: %v", err)
	}

	if !res.Optimal || res.Cost != want {
		t.Errorf("farm returned cost=%v optimal=%v, sequential optimum %v", res.Cost, res.Optimal, want)
	}
	identity(t, res.Stats)
	if res.Farm.Requeues < 1 {
		t.Errorf("stalled lease was never re-queued: %+v", res.Farm)
	}
	var zstats, rstats *WorkerFarmStats
	for i := range res.Farm.Workers {
		switch res.Farm.Workers[i].Name {
		case "zombie":
			zstats = &res.Farm.Workers[i]
		case "rescuer":
			rstats = &res.Farm.Workers[i]
		}
	}
	if zstats == nil || zstats.Requeued < 1 {
		t.Errorf("zombie's lease not recorded as requeued: %+v", res.Farm.Workers)
	}
	if rstats == nil || rstats.Completed != int64(res.Farm.Units) {
		t.Errorf("rescuer should have completed every unit: %+v", res.Farm.Workers)
	}

	// The zombie finally reports its long-gone lease: rejected as stale,
	// nothing double-counted.
	stale := resultRequest{Job: c.Job(), Worker: "zombie", Unit: zombie.Unit, Seq: zombie.Seq,
		Stats: bb.Stats{Expanded: 999, Generated: 999}}
	var ack resultResponse
	if code, err := postAs(t, srv.URL, pathResult, stale, &ack); err != nil || code != http.StatusOK {
		t.Fatalf("late result: code=%d err=%v", code, err)
	}
	if ack.Accepted {
		t.Error("late result from a lapsed, superseded lease was accepted")
	}
	after := snapshot(c)
	if after.Stale < 1 {
		t.Errorf("stale counter not incremented: %+v", after)
	}
	// The fold already happened; a second assemble must not change totals.
	res2, err := c.assemble(false)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Expanded != res.Stats.Expanded || res2.Stats.Generated != res.Stats.Generated {
		t.Errorf("late stale result leaked into the ledger: %+v vs %+v", res2.Stats, res.Stats)
	}
	identity(t, res2.Stats)
}

// TestDuplicateResultNotDoubleCounted: the same worker posts the same
// accepted result twice. The second post must be rejected (the lease was
// consumed) and the fold must happen exactly once.
func TestDuplicateResultNotDoubleCounted(t *testing.T) {
	m := matrix.Random0100(rand.New(rand.NewSource(44)), 10)
	c, srv, want := startFarm(t, m, Options{Workers: 2, BB: bb.DefaultOptions()})
	if c.Units() == 0 {
		t.Fatal("test needs a farm with units")
	}

	var lease leaseResponse
	if _, err := postAs(t, srv.URL, pathLease, leaseRequest{Job: c.Job(), Worker: "dup"}, &lease); err != nil {
		t.Fatal(err)
	}
	result := resultRequest{Job: c.Job(), Worker: "dup", Unit: lease.Unit, Seq: lease.Seq,
		Stats: bb.Stats{Expanded: 3, Generated: 5, Completed: 1, Pruned: bb.PruneStats{Bound: 1}}}
	var first, second resultResponse
	if _, err := postAs(t, srv.URL, pathResult, result, &first); err != nil {
		t.Fatal(err)
	}
	if !first.Accepted {
		t.Fatalf("first result rejected: %+v", first)
	}
	if _, err := postAs(t, srv.URL, pathResult, result, &second); err != nil {
		t.Fatal(err)
	}
	if second.Accepted {
		t.Error("duplicate result accepted — stats double-counted")
	}

	c.mu.Lock()
	folded := c.foldedStats
	c.mu.Unlock()
	if folded.Expanded != 3 || folded.Generated != 5 {
		t.Errorf("fold happened more than once: %+v", folded)
	}

	// Drain the rest of the farm. The fabricated result discarded its
	// unit's subtree unsolved, so the farm's answer is only an upper bound
	// on the optimum here — but it must still be a valid feasible tree and
	// can never undercut the sequential optimum.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go RunWorker(ctx, srv.URL, WorkerOptions{Name: "drain", Poll: time.Millisecond})
	res, err := c.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost < want {
		t.Errorf("cost %v undercuts the sequential optimum %v", res.Cost, want)
	}
	if err := res.Tree.Validate(1e-9); err != nil {
		t.Errorf("invalid tree: %v", err)
	}
}

// helperEnvURL tells the re-executed test binary to behave as a worker
// process instead of running the test suite.
const helperEnvURL = "EVOTREE_DIST_HELPER_URL"

// TestHelperWorkerProcess is not a test: it is the worker process body for
// TestWorkerProcessKill, entered only when the helper env var is set.
func TestHelperWorkerProcess(t *testing.T) {
	base := os.Getenv(helperEnvURL)
	if base == "" {
		t.Skip("helper process body; set " + helperEnvURL + " to run")
	}
	// Enormous per-expansion delay: this process is meant to die holding
	// its lease, never to finish a unit.
	_ = RunWorker(context.Background(), base, WorkerOptions{
		Name: "victim", Poll: time.Millisecond, StepDelay: 10 * time.Second,
	})
	os.Exit(0)
}

// TestWorkerProcessKill kills a real worker process (SIGKILL, no goodbye)
// mid-solve and proves the farm still terminates with the sequential
// optimum: the victim's lease lapses, its unit is re-queued, and the
// rescuers re-solve it with no double-counting.
func TestWorkerProcessKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a worker process")
	}
	m := matrix.Random0100(rand.New(rand.NewSource(43)), 10)
	opt := Options{Workers: 2, LeaseTTL: 100 * time.Millisecond, BB: bb.DefaultOptions()}
	c, srv, want := startFarm(t, m, opt)
	if c.Units() == 0 {
		t.Fatal("test needs a farm with units")
	}

	cmd := exec.Command(os.Args[0], "-test.run", "TestHelperWorkerProcess")
	cmd.Env = append(os.Environ(), helperEnvURL+"="+srv.URL)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	defer cmd.Wait()

	// Wait until the victim holds a lease, then kill it cold. StepDelay
	// guarantees it cannot have reported the unit: it sleeps 10s before
	// its first expansion, and freshly sliced units always require at
	// least one expansion (they are born strictly below the incumbent).
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := snapshot(c)
		var dispatched bool
		for _, w := range snap.Workers {
			if w.Name == "victim" && w.Dispatched >= 1 {
				dispatched = true
			}
		}
		if dispatched {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never got a lease")
		}
		time.Sleep(time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		name := "rescuer" + string(rune('0'+i))
		go RunWorker(ctx, srv.URL, WorkerOptions{Name: name, Poll: time.Millisecond})
	}
	res, err := c.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}

	if !res.Optimal || res.Cost != want {
		t.Errorf("farm returned cost=%v optimal=%v after worker kill, sequential optimum %v",
			res.Cost, res.Optimal, want)
	}
	identity(t, res.Stats)
	if res.Farm.Requeues < 1 {
		t.Errorf("killed worker's lease was never re-queued: %+v", res.Farm)
	}
	for _, w := range res.Farm.Workers {
		if w.Name == "victim" {
			if w.Completed != 0 {
				t.Errorf("dead victim credited with completions: %+v", w)
			}
			if w.Requeued < 1 {
				t.Errorf("victim's lease not requeued: %+v", w)
			}
		}
	}
	if res.Farm.Done != res.Farm.Units {
		t.Errorf("%d of %d units done", res.Farm.Done, res.Farm.Units)
	}
}
