package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"algossip/internal/ctlhttp"
	"algossip/internal/harness"
	"algossip/internal/resultstore"
)

// CoordinatorOptions configures one fabric coordinator.
type CoordinatorOptions struct {
	// Spec is the experiment to distribute. It must be name-based
	// (Graph + Sizes, no pre-built Graphs, no custom TrialSeed): workers
	// rebuild the work-list from the spec's JSON form, and the
	// fingerprint handshake rejects anything that would not round-trip.
	Spec *harness.Spec
	// Listen is the HTTP listen address (default 127.0.0.1:0).
	Listen string
	// Checkpoint, when non-empty, durably records every accepted trial
	// in the harness checkpoint format; with Resume, a restarted
	// coordinator replays it and re-leases only what is missing.
	Checkpoint string
	Resume     bool
	// LeaseChunk is the number of trials per lease (default 32).
	LeaseChunk int
	// LeaseTTL is how long a worker may sit on a lease without renewing
	// before its range is requeued (default 30s).
	LeaseTTL time.Duration
	// Linger is how long the coordinator keeps answering Done after the
	// last trial completes, so every polling worker observes completion
	// rather than a refused connection (default 2s).
	Linger time.Duration
	// Store, when set, ingests the merged results on completion.
	Store *resultstore.Store
	// Progress, when set, is called serially after every accepted trial.
	Progress func(done, total int)
	// now overrides the lease clock (tests only).
	now func() time.Time
}

// Coordinator owns a run's work-list and serves it to workers: the
// harness Ledger keeps the books (what is done, durably, and what it came
// to), the LeaseTable says who is working on what, and this type is the
// HTTP between them and the workers.
type Coordinator struct {
	opts        CoordinatorOptions
	fingerprint string
	ledger      *harness.Ledger
	table       *harness.LeaseTable
	ctl         *ctlhttp.Server // stopped when the last trial is accepted
}

// NewCoordinator validates the options, opens the ledger (expanding the
// work-list and, when resuming, replaying the checkpoint), and binds the
// listener — workers can connect as soon as it returns; serving starts
// with Run.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	if opts.Spec == nil {
		return nil, fmt.Errorf("fabric: nil spec")
	}
	if len(opts.Spec.Graphs) > 0 {
		return nil, fmt.Errorf("fabric: pre-built Graphs do not serialize; use a name-based spec (Graph + Sizes)")
	}
	if opts.Spec.TrialSeed != nil {
		return nil, fmt.Errorf("fabric: custom TrialSeed functions do not serialize; use the default derivation")
	}
	if opts.LeaseChunk <= 0 {
		opts.LeaseChunk = defaultLeaseChunk
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = defaultLeaseTTL
	}
	if opts.Linger <= 0 {
		opts.Linger = defaultDoneLinger
	}
	var progress func(done, total int, t harness.Trial, o harness.Outcome)
	if opts.Progress != nil {
		progress = func(done, total int, _ harness.Trial, _ harness.Outcome) { opts.Progress(done, total) }
	}
	ledger, err := harness.OpenLedger(opts.Spec, opts.Checkpoint, opts.Resume, progress)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{opts: opts, fingerprint: opts.Spec.Fingerprint(), ledger: ledger}
	if c.table, err = harness.NewLeaseTable(len(ledger.Trials), opts.LeaseChunk, opts.LeaseTTL, opts.now); err == nil {
		if c.ctl, err = ctlhttp.Listen(opts.Listen, c.mux()); err != nil {
			err = fmt.Errorf("fabric: listen: %w", err)
		}
	}
	if err != nil {
		_ = ledger.Close()
		return nil, err
	}
	c.table.MarkDone(ledger.Resumed()...)
	c.finishIfDone()
	return c, nil
}

// URL is the base URL workers dial.
func (c *Coordinator) URL() string { return c.ctl.URL() }

// Run serves workers until every trial has completed or ctx is
// cancelled. On completion it returns the merged ResultSet — identical
// to a local Runner.Run of the same spec — after ingesting it into the
// configured store. On cancellation it returns ctx's error; accepted
// trials are already durable in the checkpoint, so a successor resumes
// where this coordinator stopped.
func (c *Coordinator) Run(ctx context.Context) (*harness.ResultSet, error) {
	start := time.Now()
	// Past the last trial, keep answering Done for the linger so polling
	// workers learn the run finished instead of hitting a closed port.
	runErr := c.ctl.Serve(ctx, c.opts.Linger)
	if runErr != nil {
		runErr = fmt.Errorf("fabric: serve: %w", runErr)
	} else if !c.table.Done() {
		runErr = ctx.Err()
	}
	if err := c.ledger.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return nil, runErr
	}

	rs := c.ledger.ResultSet()
	rs.Elapsed = time.Since(start)
	if c.opts.Store != nil {
		if err := c.opts.Store.Append(resultstore.FromResultSet(rs)...); err != nil {
			return nil, fmt.Errorf("fabric: store ingest: %w", err)
		}
		if err := c.opts.Store.Flush(); err != nil {
			return nil, fmt.Errorf("fabric: store flush: %w", err)
		}
	}
	return rs, nil
}

// finishIfDone releases Run once every trial has completed.
func (c *Coordinator) finishIfDone() bool {
	done := c.table.Done()
	if done {
		c.ctl.Stop()
	}
	return done
}

func (c *Coordinator) mux() *http.ServeMux {
	mux := http.NewServeMux()
	total := len(c.ledger.Trials)
	ctlhttp.HandleBare(mux, "GET /spec", "", func() (any, error) {
		return specEnvelope{Spec: c.opts.Spec, Fingerprint: c.fingerprint, Total: total}, nil
	})
	ctlhttp.Handle(mux, "POST /lease", "", func(req leaseRequest) (any, error) {
		resp := leaseResponse{RetryMillis: idleRetry.Milliseconds()}
		if c.table.Done() {
			resp.Done = true
		} else if l, ok := c.table.Lease(req.Worker); ok {
			resp.Lease = &l
			resp.RenewMillis = (c.opts.LeaseTTL / 3).Milliseconds()
		}
		return resp, nil
	})
	ctlhttp.Handle(mux, "POST /renew", "renewed", func(req renewRequest) (any, error) {
		if !c.table.Renew(req.Lease) {
			return nil, &ctlhttp.StatusError{Code: http.StatusGone, Body: "unknown or expired lease"}
		}
		return nil, nil
	})
	ctlhttp.HandleBody(mux, "POST /results", "", c.results)
	ctlhttp.HandleBare(mux, "GET /status", "", func() (any, error) {
		done, leased, free := c.table.Counts()
		return statusResponse{Name: c.opts.Spec.Name, Total: total, Done: done, Leased: leased, Free: free}, nil
	})
	return mux
}

// results validates a fingerprinted JSONL result stream in full before
// committing any of it: a garbage, foreign-spec or oversized body is
// rejected with a 4xx and neither the checkpoint nor the in-memory merge
// sees a single entry from it. Duplicates (a late report racing the
// re-leased range) are idempotently ignored — both copies carry the same
// deterministic outcome.
func (c *Coordinator) results(body io.Reader) (any, error) {
	data, err := io.ReadAll(body)
	if err != nil {
		return nil, fmt.Errorf("results stream: %w", err)
	}
	line, rest, _ := bytes.Cut(data, []byte("\n"))
	if len(line) == 0 {
		return nil, fmt.Errorf("empty results stream")
	}
	var hdr resultsHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		return nil, fmt.Errorf("results header: %w", err)
	}
	if hdr.Fingerprint != c.fingerprint {
		return nil, fmt.Errorf("results from a different spec (fingerprint mismatch)")
	}
	total := len(c.ledger.Trials)
	var entries []resultEntry
	for len(rest) > 0 {
		line, rest, _ = bytes.Cut(rest, []byte("\n"))
		var e resultEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("results entry %d: %w", len(entries), err)
		}
		if e.I < 0 || e.I >= total {
			return nil, fmt.Errorf("results entry index %d outside [0,%d)", e.I, total)
		}
		if len(entries) == total {
			return nil, fmt.Errorf("more results entries than the work-list's %d trials", total)
		}
		entries = append(entries, e)
	}

	accepted := 0
	for _, e := range entries {
		fresh, err := c.ledger.Commit(e.I, e.O)
		if err != nil {
			// A checkpoint write failure is the coordinator's problem,
			// not the worker's: 500 so the worker retries later.
			return nil, &ctlhttp.StatusError{Code: http.StatusInternalServerError, Body: err.Error()}
		}
		c.table.Complete(e.I)
		if fresh {
			accepted++
		}
	}
	if hdr.Lease != 0 {
		c.table.Renew(hdr.Lease)
	}
	return resultsResponse{Accepted: accepted, Done: c.finishIfDone()}, nil
}
