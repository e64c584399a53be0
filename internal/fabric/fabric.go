// Package fabric is the distributed experiment fabric: a coordinator
// that expands a harness.Spec into its deterministic trial work-list and
// serves trial leases over HTTP, plus a worker that pulls leases, runs
// the trials through harness.Execute, and streams fingerprinted JSONL
// results back.
//
// The determinism contract extends one level up from the worker pool:
// every trial's outcome is a pure function of (Spec, trial seed), so the
// merged aggregate output is byte-identical for any worker count, any
// worker failure history, and any coordinator restart — a killed
// worker's lease simply expires and its range is re-leased, and a
// duplicate result for a trial is the same bytes by construction. The
// harness checkpoint format is the coordination substrate: the
// coordinator's on-disk state is an ordinary fingerprint-validated
// checkpoint, resumable by a restarted coordinator (or, in the extreme,
// by a single-process Runner).
package fabric

import (
	"time"

	"algossip/internal/harness"
)

// Wire types shared by coordinator and worker.

// specEnvelope is the GET /spec response: the spec itself plus the
// coordinator's fingerprint and work-list size, which the worker
// re-derives locally and must match before running anything.
type specEnvelope struct {
	Spec        *harness.Spec `json:"spec"`
	Fingerprint string        `json:"fingerprint"`
	Total       int           `json:"total"`
}

// leaseRequest is the POST /lease body.
type leaseRequest struct {
	Worker string `json:"worker"`
}

// leaseResponse is the POST /lease response. Exactly one of Done, Lease
// or neither (poll again) describes the run's state.
type leaseResponse struct {
	// Done means every trial has completed; the worker can exit.
	Done bool `json:"done,omitempty"`
	// Lease is the granted batch (nil when everything free is out on
	// live leases — poll again after RetryMillis).
	Lease *harness.Lease `json:"lease,omitempty"`
	// RenewMillis is the cadence at which a worker holding Lease should
	// POST /renew to prove liveness.
	RenewMillis int64 `json:"renew_ms,omitempty"`
	// RetryMillis is the suggested poll delay when no lease was granted.
	RetryMillis int64 `json:"retry_ms,omitempty"`
}

// renewRequest is the POST /renew body.
type renewRequest struct {
	Lease int64 `json:"lease"`
}

// resultsHeader is the first JSONL line of a POST /results body. The
// fingerprint binds the stream to the coordinator's spec — results from
// a worker running anything else are rejected before a byte is
// committed.
type resultsHeader struct {
	Fingerprint string `json:"fingerprint"`
	Lease       int64  `json:"lease,omitempty"`
	Worker      string `json:"worker,omitempty"`
}

// resultEntry is one completed trial line, the checkpoint entry shape.
type resultEntry struct {
	I int             `json:"i"`
	O harness.Outcome `json:"o"`
}

// resultsResponse is the POST /results response.
type resultsResponse struct {
	Accepted int  `json:"accepted"`
	Done     bool `json:"done,omitempty"`
}

// statusResponse is the GET /status response.
type statusResponse struct {
	Name   string `json:"name,omitempty"`
	Total  int    `json:"total"`
	Done   int    `json:"done"`
	Leased int    `json:"leased"`
	Free   int    `json:"free"`
}

const (
	defaultLeaseChunk = 32
	defaultLeaseTTL   = 30 * time.Second
	// idleRetry is the wait the coordinator hands a worker when every free
	// trial is out on a live lease (and the worker's own, should a lease
	// response carry no hint).
	idleRetry = 200 * time.Millisecond
	// defaultDoneLinger is how long a finished coordinator keeps serving
	// Done responses so polling workers observe completion instead of a
	// refused connection. Covers several poll intervals.
	defaultDoneLinger = 2 * time.Second
)
