package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"algossip/internal/ctlhttp"
	"algossip/internal/harness"
)

// WorkerOptions configures one fabric worker.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (e.g. http://host:port).
	Coordinator string
	// Name labels this worker in leases and logs.
	Name string
	// Parallel bounds concurrent trials within a lease (<=0: all cores).
	Parallel int
	// Client overrides the HTTP client (tests).
	Client *http.Client
}

// Worker pulls leases from a coordinator and runs them.
type Worker struct {
	opts        WorkerOptions
	client      ctlhttp.Client
	spec        *harness.Spec
	fingerprint string
	trials      []harness.Trial
}

// A worker rides out a coordinator restart: a transport error asking for
// a lease is retried a few times (an answer, whatever its status, is
// final), and a finished batch is offered until the coordinator takes it
// or ctx ends — only a 4xx, a protocol violation, gives it up.
var (
	leaseRetry  = ctlhttp.Retry{First: 100 * time.Millisecond, Limit: 2 * time.Second, Tries: 5, Fatal: ctlhttp.IsStatus}
	uploadRetry = ctlhttp.Retry{First: 100 * time.Millisecond, Limit: 2 * time.Second, Fatal: func(err error) bool {
		var se *ctlhttp.StatusError
		return errors.As(err, &se) && se.Code >= 400 && se.Code < 500
	}}
)

// RunWorker is the one-call worker loop: fetch and verify the spec, then
// lease, execute, and stream results until the coordinator reports the
// run complete or ctx is cancelled. It returns the number of trials this
// worker executed.
func RunWorker(ctx context.Context, opts WorkerOptions) (int, error) {
	w, err := NewWorker(ctx, opts)
	if err != nil {
		return 0, err
	}
	return w.Run(ctx)
}

// NewWorker fetches the coordinator's spec, expands the work-list
// locally, and verifies the fingerprint round-trips — the guarantee that
// this worker will compute exactly the trials the coordinator is
// merging.
func NewWorker(ctx context.Context, opts WorkerOptions) (*Worker, error) {
	if opts.Coordinator == "" {
		return nil, fmt.Errorf("fabric: no coordinator URL")
	}
	w := &Worker{opts: opts, client: ctlhttp.Client{Base: opts.Coordinator, HTTP: opts.Client}}

	var env specEnvelope
	if err := w.client.Do(ctx, http.MethodGet, "/spec", nil, &env); err != nil {
		return nil, fmt.Errorf("fabric: fetch spec: %w", err)
	}
	if env.Spec == nil {
		return nil, fmt.Errorf("fabric: coordinator sent no spec")
	}
	_, trials, err := env.Spec.Expand()
	if err != nil {
		return nil, fmt.Errorf("fabric: expand spec: %w", err)
	}
	if fp := env.Spec.Fingerprint(); fp != env.Fingerprint {
		return nil, fmt.Errorf("fabric: spec did not survive the wire: local fingerprint %s, coordinator %s", fp, env.Fingerprint)
	}
	if len(trials) != env.Total {
		return nil, fmt.Errorf("fabric: work-list size mismatch: local %d, coordinator %d", len(trials), env.Total)
	}
	w.spec, w.fingerprint, w.trials = env.Spec, env.Fingerprint, trials
	return w, nil
}

// Run leases, executes, and reports until done or cancelled.
func (w *Worker) Run(ctx context.Context) (int, error) {
	executed := 0
	for {
		if err := ctx.Err(); err != nil {
			return executed, err
		}
		var resp leaseResponse
		err := leaseRetry.Do(ctx, func() error {
			return w.client.Do(ctx, http.MethodPost, "/lease", leaseRequest{Worker: w.opts.Name}, &resp)
		})
		if err != nil {
			return executed, fmt.Errorf("fabric: lease: %w", err)
		}
		switch {
		case resp.Done:
			return executed, nil
		case resp.Lease == nil:
			// Every free trial is out on a live lease: idle for as long as
			// the coordinator says.
			wait := idleRetry
			if resp.RetryMillis > 0 {
				wait = time.Duration(resp.RetryMillis) * time.Millisecond
			}
			if err := ctlhttp.Wait(ctx, wait); err != nil {
				return executed, err
			}
		default:
			n, done, err := w.runLease(ctx, *resp.Lease, resp.RenewMillis)
			executed += n
			if err != nil {
				return executed, err
			}
			if done {
				return executed, nil
			}
		}
	}
}

// runLease executes one lease's trials on the local pool — the executor
// a local sweep runs, so each pool worker resets the decoders its last
// trial left instead of rebuilding them — renewing the lease while it
// works, then streams the batch back (uploadRetry).
// The returned done flag mirrors the coordinator's: true when this batch
// completed the run, so the worker can exit without another poll.
func (w *Worker) runLease(ctx context.Context, l harness.Lease, renewMillis int64) (int, bool, error) {
	// Renewal heartbeat: proves liveness for leases that run longer than
	// the TTL. A failed renew is harmless — worst case the range is
	// re-leased and the duplicate results are ignored.
	renewCtx, stopRenew := context.WithCancel(ctx)
	defer stopRenew()
	if every := time.Duration(renewMillis) * time.Millisecond; every > 0 {
		go func() {
			for ctlhttp.Wait(renewCtx, every) == nil {
				_ = w.client.Do(renewCtx, http.MethodPost, "/renew", renewRequest{Lease: l.ID}, nil)
			}
		}()
	}

	var mu sync.Mutex
	outcomes := make(map[int]harness.Outcome, len(l.Indices))
	err := harness.Runner{Parallel: w.opts.Parallel}.RunTrials(w.spec, w.trials, l.Indices, func(i int, o harness.Outcome) error {
		mu.Lock()
		outcomes[i] = o
		mu.Unlock()
		return nil
	})
	if err != nil {
		return 0, false, fmt.Errorf("fabric: trial execution: %w", err)
	}
	stopRenew()

	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	if err := enc.Encode(resultsHeader{Fingerprint: w.fingerprint, Lease: l.ID, Worker: w.opts.Name}); err != nil {
		return 0, false, err
	}
	for _, i := range l.Indices {
		if err := enc.Encode(resultEntry{I: i, O: outcomes[i]}); err != nil {
			return 0, false, err
		}
	}

	var resp resultsResponse
	err = uploadRetry.Do(ctx, func() error {
		return w.client.Do(ctx, http.MethodPost, "/results", body.Bytes(), &resp)
	})
	switch {
	case ctlhttp.IsStatus(err):
		return 0, false, fmt.Errorf("fabric: results rejected: %w", err)
	case err != nil:
		return 0, false, err
	}
	return len(outcomes), resp.Done, nil
}
