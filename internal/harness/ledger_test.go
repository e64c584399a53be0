package harness

import (
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// TestLedgerBooks: the ledger is the one place a finished trial is
// recorded, so its rules are checked here once for the pool and the
// fabric coordinator alike — a duplicate is ignored and not reported,
// progress counts the resumed trials, a trial the checkpoint could not
// take is not merged, and a reopened ledger starts where the file ends.
func TestLedgerBooks(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ledger.ckpt")
	spec := lineSpec()
	var seen []int
	progress := func(done, total int, tr Trial, o Outcome) {
		if total != 4 || o.Result.Rounds != 10+tr.Index {
			t.Errorf("progress(%d, %d, trial %d, %d rounds)", done, total, tr.Index, o.Result.Rounds)
		}
		seen = append(seen, done)
	}
	outcome := func(i int) Outcome {
		var o Outcome
		o.Result.Rounds = 10 + i
		return o
	}

	l, err := OpenLedger(&spec, ckpt, false, progress)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Pending(); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) || len(l.Resumed()) != 0 {
		t.Fatalf("fresh ledger: pending %v, resumed %v", got, l.Resumed())
	}
	for _, i := range []int{2, 0} {
		if fresh, err := l.Commit(i, outcome(i)); !fresh || err != nil {
			t.Fatalf("commit %d: fresh=%v, %v", i, fresh, err)
		}
	}
	if fresh, err := l.Commit(0, outcome(99)); fresh || err != nil {
		t.Fatalf("duplicate commit: fresh=%v, %v", fresh, err)
	}
	if !reflect.DeepEqual(seen, []int{1, 2}) {
		t.Fatalf("progress after two trials and a duplicate: %v", seen)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint is closed under it: the next trial cannot be made
	// durable, so it is neither merged nor reported.
	if fresh, err := l.Commit(1, outcome(1)); fresh || err == nil {
		t.Fatalf("commit with a failing checkpoint: fresh=%v, %v", fresh, err)
	}
	if got := l.Pending(); !reflect.DeepEqual(got, []int{1, 3}) || len(seen) != 2 {
		t.Fatalf("after the failed commit: pending %v, progress %v", got, seen)
	}

	seen = nil
	spec2 := lineSpec()
	l, err = OpenLedger(&spec2, ckpt, true, progress)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	resumed := append([]int(nil), l.Resumed()...)
	sort.Ints(resumed)
	if !reflect.DeepEqual(resumed, []int{0, 2}) || !reflect.DeepEqual(l.Pending(), []int{1, 3}) {
		t.Fatalf("resumed ledger: resumed %v, pending %v", resumed, l.Pending())
	}
	for _, i := range l.Pending() {
		if fresh, err := l.Commit(i, outcome(i)); !fresh || err != nil {
			t.Fatalf("commit %d: fresh=%v, %v", i, fresh, err)
		}
	}
	if !reflect.DeepEqual(seen, []int{3, 4}) {
		t.Fatalf("progress on the resumed ledger: %v, want it to count the resumed trials", seen)
	}
	rs := l.ResultSet()
	if rs.Executed != 2 || len(rs.Outcomes) != 4 {
		t.Fatalf("result set: executed %d of %d", rs.Executed, len(rs.Outcomes))
	}
	for i, o := range rs.Outcomes {
		if o.Result.Rounds != 10+i {
			t.Errorf("outcome %d: %d rounds, want %d (the first copy of a duplicate wins)", i, o.Result.Rounds, 10+i)
		}
	}
}
