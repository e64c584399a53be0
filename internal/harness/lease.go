package harness

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Lease is a batch of trial indices handed to one worker for a bounded
// time. Indices are ascending; after expiry requeues they need not be
// contiguous, so the explicit list (not a [start,end) range) is the
// wire-safe representation.
type Lease struct {
	ID      int64     `json:"id"`
	Worker  string    `json:"worker,omitempty"`
	Indices []int     `json:"indices"`
	Expires time.Time `json:"expires"`
}

// LeaseTable is the coordination substrate of a distributed run: it
// tracks which trials of an expanded work-list are done, which are out
// on a lease, and which are free, and it requeues the incomplete part of
// any lease that outlives its TTL — a killed worker's range simply goes
// back in the pool. All methods are safe for concurrent use.
//
// Completion is idempotent and lease-agnostic: a trial's outcome is a
// pure function of its seed, so a late report from an expired lease is
// accepted (and a duplicate from the re-leased worker ignored) without
// affecting the merged output.
type LeaseTable struct {
	mu    sync.Mutex
	chunk int
	ttl   time.Duration
	now   func() time.Time
	// owner says where each trial is: ownerFree, ownerDone, or the id of
	// the live lease holding it (ids start at 1).
	owner  []int64
	nDone  int
	free   []int // ascending; a trial completed while it waited here stays until Lease skips it
	leases map[int64]*liveLease
	nextID int64
}

const (
	ownerFree int64 = 0
	ownerDone int64 = -1
)

// liveLease is the table's side of a Lease: the indices it was issued and
// how many of them it still holds.
type liveLease struct {
	indices []int
	left    int
	expires time.Time
}

// NewLeaseTable builds a table over total trials, handing out at most
// chunk indices per lease, each expiring ttl after issue. now overrides
// the clock (tests); nil means time.Now.
func NewLeaseTable(total, chunk int, ttl time.Duration, now func() time.Time) (*LeaseTable, error) {
	if total < 0 {
		return nil, fmt.Errorf("harness: negative lease-table size %d", total)
	}
	if chunk < 1 {
		return nil, fmt.Errorf("harness: lease chunk must be positive, got %d", chunk)
	}
	if ttl <= 0 {
		return nil, fmt.Errorf("harness: lease ttl must be positive, got %v", ttl)
	}
	if now == nil {
		now = time.Now
	}
	lt := &LeaseTable{
		chunk: chunk, ttl: ttl, now: now,
		owner:  make([]int64, total),
		free:   make([]int, total),
		leases: make(map[int64]*liveLease),
	}
	for i := range lt.free {
		lt.free[i] = i
	}
	return lt, nil
}

// MarkDone records trials completed outside any lease (a resumed
// checkpoint's replayed outcomes). Out-of-range and repeated indices are
// ignored.
func (lt *LeaseTable) MarkDone(indices ...int) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	for _, i := range indices {
		lt.completeLocked(i)
	}
}

// Lease hands out up to chunk free trials to worker. The second return
// is false when nothing is free right now — either everything is done
// (check Done) or every remaining trial is out on a live lease and the
// worker should poll again.
func (lt *LeaseTable) Lease(worker string) (Lease, bool) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.expireLocked()
	id := lt.nextID + 1
	var indices []int
	for len(lt.free) > 0 && len(indices) < lt.chunk {
		i := lt.free[0]
		lt.free = lt.free[1:]
		if lt.owner[i] == ownerFree {
			lt.owner[i] = id
			indices = append(indices, i)
		}
	}
	if len(indices) == 0 {
		return Lease{}, false
	}
	lt.nextID = id
	l := &liveLease{indices: indices, left: len(indices), expires: lt.now().Add(lt.ttl)}
	lt.leases[id] = l
	// The caller's copy must not alias the table's index list.
	return Lease{ID: id, Worker: worker, Indices: append([]int(nil), indices...), Expires: l.expires}, true
}

// Renew extends a live lease's expiry (a worker streaming partial
// results proves liveness). Renewing an expired or unknown lease is a
// no-op returning false.
func (lt *LeaseTable) Renew(id int64) bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.expireLocked()
	l, ok := lt.leases[id]
	if !ok {
		return false
	}
	l.expires = lt.now().Add(lt.ttl)
	return true
}

// Complete marks one trial done, releasing it from whatever lease holds
// it. It returns false for out-of-range indices and true otherwise
// (idempotently for repeats).
func (lt *LeaseTable) Complete(i int) bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return lt.completeLocked(i)
}

func (lt *LeaseTable) completeLocked(i int) bool {
	if i < 0 || i >= len(lt.owner) {
		return false
	}
	id := lt.owner[i]
	if id == ownerDone {
		return true
	}
	lt.owner[i] = ownerDone
	lt.nDone++
	if l := lt.leases[id]; l != nil { // nil for a free trial: no lease has id 0
		if l.left--; l.left == 0 {
			delete(lt.leases, id)
		}
	}
	return true
}

// expireLocked requeues the trials every expired lease still holds.
func (lt *LeaseTable) expireLocked() {
	now := lt.now()
	requeued := false
	for id, l := range lt.leases {
		if now.Before(l.expires) {
			continue
		}
		for _, i := range l.indices {
			if lt.owner[i] == id {
				lt.owner[i] = ownerFree
				lt.free = append(lt.free, i)
				requeued = true
			}
		}
		delete(lt.leases, id)
	}
	if requeued {
		sort.Ints(lt.free)
	}
}

// Done reports whether every trial has completed.
func (lt *LeaseTable) Done() bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return lt.nDone == len(lt.owner)
}

// Counts returns (done, live-leased, free) trial counts, expiring stale
// leases first — the coordinator's /status observables.
func (lt *LeaseTable) Counts() (done, leased, free int) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.expireLocked()
	for _, l := range lt.leases {
		leased += l.left
	}
	return lt.nDone, leased, len(lt.owner) - lt.nDone - leased
}
