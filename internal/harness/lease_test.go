package harness

import (
	"testing"
	"time"
)

// fakeClock is an injectable lease-table clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }

// leaseSet returns a lease's indices as a membership set.
func leaseSet(l Lease) map[int]bool {
	got := make(map[int]bool, len(l.Indices))
	for _, i := range l.Indices {
		got[i] = true
	}
	return got
}

func TestLeaseTableHandsOutDisjointChunks(t *testing.T) {
	clock := newFakeClock()
	lt, err := NewLeaseTable(10, 4, time.Minute, clock.now)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	sizes := []int{4, 4, 2}
	for _, want := range sizes {
		l, ok := lt.Lease("w")
		if !ok || len(l.Indices) != want {
			t.Fatalf("lease: ok=%v indices=%v, want %d", ok, l.Indices, want)
		}
		for _, i := range l.Indices {
			if seen[i] {
				t.Fatalf("index %d leased twice", i)
			}
			seen[i] = true
		}
	}
	if _, ok := lt.Lease("w"); ok {
		t.Fatal("lease granted with nothing free")
	}
	if lt.Done() {
		t.Fatal("Done with zero completions")
	}
}

func TestLeaseTableExpiryRequeuesIncomplete(t *testing.T) {
	clock := newFakeClock()
	lt, err := NewLeaseTable(4, 4, time.Minute, clock.now)
	if err != nil {
		t.Fatal(err)
	}
	l, _ := lt.Lease("doomed")
	// The doomed worker reports one trial, then dies mid-range.
	lt.Complete(l.Indices[0])
	if _, ok := lt.Lease("other"); ok {
		t.Fatal("remaining trials leased out while the first lease is live")
	}
	clock.advance(2 * time.Minute)
	l2, ok := lt.Lease("other")
	if !ok || len(l2.Indices) != 3 {
		t.Fatalf("expiry did not requeue the incomplete range: ok=%v indices=%v", ok, l2.Indices)
	}
	got := leaseSet(l2)
	if got[l.Indices[0]] {
		t.Fatal("completed trial requeued by expiry")
	}
	for _, i := range l2.Indices {
		lt.Complete(i)
	}
	if !lt.Done() {
		t.Fatal("not done after all trials completed")
	}
}

func TestLeaseTableRenewAndLateCompletion(t *testing.T) {
	clock := newFakeClock()
	lt, err := NewLeaseTable(2, 1, time.Minute, clock.now)
	if err != nil {
		t.Fatal(err)
	}
	l, _ := lt.Lease("slow")
	clock.advance(45 * time.Second)
	if !lt.Renew(l.ID) {
		t.Fatal("renew of a live lease failed")
	}
	clock.advance(45 * time.Second)
	// Renewed: still live, so its trial must not be re-leased.
	l2, ok := lt.Lease("other")
	if !ok || l2.Indices[0] == l.Indices[0] {
		t.Fatalf("renewed lease's trial handed out again: %v", l2.Indices)
	}
	clock.advance(2 * time.Minute)
	if lt.Renew(l.ID) {
		t.Fatal("renew of an expired lease succeeded")
	}
	// Late completion from the expired lease still counts, and the
	// duplicate from the re-leased worker is idempotent.
	l3, ok := lt.Lease("retry")
	if !ok {
		t.Fatal("expired trial not re-leased")
	}
	lt.Complete(l.Indices[0])
	lt.Complete(l3.Indices[0])
	lt.Complete(l2.Indices[0])
	if !lt.Done() {
		t.Fatal("not done after late + duplicate completions")
	}
	if !lt.Complete(0) {
		t.Fatal("idempotent completion returned false")
	}
	if lt.Complete(99) {
		t.Fatal("out-of-range completion accepted")
	}
}

func TestLeaseTableMarkDoneFromCheckpoint(t *testing.T) {
	lt, err := NewLeaseTable(5, 10, time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	lt.MarkDone(0, 2, 4, 4, -1, 99)
	done, leased, free := lt.Counts()
	if done != 3 || leased != 0 || free != 2 {
		t.Fatalf("counts after MarkDone = (%d, %d, %d), want (3, 0, 2)", done, leased, free)
	}
	l, ok := lt.Lease("w")
	if !ok {
		t.Fatal("no lease for the remaining trials")
	}
	got := leaseSet(l)
	if len(l.Indices) != 2 || !got[1] || !got[3] {
		t.Fatalf("lease after MarkDone = %v, want [1 3]", l.Indices)
	}
}

// TestLeaseTableLateCompletionLeavesFreeList: a trial an expiry put back
// in the free pool and a late report then completed is not handed out
// again — the pool drops it when Lease gets to it.
func TestLeaseTableLateCompletionLeavesFreeList(t *testing.T) {
	clock := newFakeClock()
	lt, err := NewLeaseTable(4, 4, time.Minute, clock.now)
	if err != nil {
		t.Fatal(err)
	}
	l, _ := lt.Lease("slow")
	clock.advance(2 * time.Minute)
	if done, leased, free := lt.Counts(); done != 0 || leased != 0 || free != 4 {
		t.Fatalf("counts after expiry = (%d, %d, %d), want (0, 0, 4)", done, leased, free)
	}
	lt.Complete(l.Indices[1])
	lt.Complete(l.Indices[2])
	if done, leased, free := lt.Counts(); done != 2 || leased != 0 || free != 2 {
		t.Fatalf("counts after late completions = (%d, %d, %d), want (2, 0, 2)", done, leased, free)
	}
	l2, ok := lt.Lease("other")
	if !ok || len(l2.Indices) != 2 || l2.Indices[0] != l.Indices[0] || l2.Indices[1] != l.Indices[3] {
		t.Fatalf("lease after late completions = %v (ok=%v), want [%d %d]", l2.Indices, ok, l.Indices[0], l.Indices[3])
	}
	if _, ok := lt.Lease("third"); ok {
		t.Fatal("completed trials leased out again")
	}
	for _, i := range l2.Indices {
		lt.Complete(i)
	}
	if !lt.Done() {
		t.Fatal("not done after every trial completed")
	}
}
