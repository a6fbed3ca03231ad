package dist

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"evotree/internal/matrix"
)

// Solve runs a complete localhost farm for m: it starts a coordinator on
// a loopback listener, launches opt.Workers worker goroutines against it
// over real HTTP, waits for the proven result, and tears the farm down.
// opt.BB.Ctx cancels the farm; the incumbent is returned with
// Optimal=false in that case.
func Solve(m *matrix.Matrix, opt Options) (*Result, error) {
	return solveFarm(m, opt, 0)
}

// solveFarm is Solve with a per-worker WorkerOptions.StepDelay, which
// tests use to stretch unit lifetimes.
func solveFarm(m *matrix.Matrix, opt Options, stepDelay time.Duration) (*Result, error) {
	opt = opt.withDefaults()
	c, err := NewCoordinator(m, opt)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: c.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	ctx := context.Background()
	if opt.BB.Ctx != nil {
		ctx = opt.BB.Ctx
	}
	wctx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	errCh := make(chan error, opt.Workers)
	for i := 0; i < opt.Workers; i++ {
		name := fmt.Sprintf("w%d", i)
		go func() {
			errCh <- RunWorker(wctx, base, WorkerOptions{
				Name:      name,
				Poll:      2 * time.Millisecond,
				StepDelay: stepDelay,
			})
		}()
	}

	res, err := c.Wait(ctx)
	stopWorkers()
	for i := 0; i < opt.Workers; i++ {
		<-errCh
	}
	return res, err
}
