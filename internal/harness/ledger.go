package harness

import "sync"

// Ledger is a spec's expanded work-list with the outcomes collected so
// far: what a run has to do, what a resumed checkpoint already did, and
// the one place a finished trial is recorded. The local Runner fills it
// from its pool and a fabric coordinator from its workers' uploads, so
// both keep the same books: checkpoint first, merge second, a duplicate
// ignored. All methods are safe for concurrent use.
type Ledger struct {
	Spec   *Spec
	Cells  []Cell
	Trials []Trial

	mu       sync.Mutex
	outcomes []Outcome
	have     []bool
	done     int             // trials recorded, the resumed ones included
	resumed  []int           // trials the checkpoint already held at open
	ck       *CheckpointFile // nil: nothing persisted
	progress func(done, total int, t Trial, o Outcome)
}

// OpenLedger expands the spec and, when checkpoint names a file, opens it
// (replaying it first when resume is set: see OpenCheckpointFile). progress,
// when non-nil, is called serially after every newly recorded trial, with
// done counting the resumed trials too.
func OpenLedger(spec *Spec, checkpoint string, resume bool, progress func(done, total int, t Trial, o Outcome)) (*Ledger, error) {
	cells, trials, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	l := &Ledger{
		Spec: spec, Cells: cells, Trials: trials,
		outcomes: make([]Outcome, len(trials)),
		have:     make([]bool, len(trials)),
		progress: progress,
	}
	if checkpoint != "" {
		if l.ck, err = OpenCheckpointFile(checkpoint, spec, len(trials), resume); err != nil {
			return nil, err
		}
		for i, o := range l.ck.Loaded() {
			l.outcomes[i], l.have[i] = o, true
			l.resumed = append(l.resumed, i)
		}
		l.done = len(l.resumed)
	}
	return l, nil
}

// Pending lists the trials not yet recorded, ascending.
func (l *Ledger) Pending() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	pending := make([]int, 0, len(l.Trials)-l.done)
	for i, have := range l.have {
		if !have {
			pending = append(pending, i)
		}
	}
	return pending
}

// Resumed lists the trials the checkpoint already held when the ledger
// was opened, in no particular order.
func (l *Ledger) Resumed() []int { return l.resumed }

// Commit records trial i's outcome: appended to the checkpoint and synced
// before it is merged, so nothing is reported done that a restart would
// not find. A trial already recorded is left alone (fresh is false): its
// outcome is a pure function of its seed, so the second copy says nothing
// new. i must index the work-list.
func (l *Ledger) Commit(i int, o Outcome) (fresh bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.have[i] {
		return false, nil
	}
	if l.ck != nil {
		if err := l.ck.Append(i, o); err != nil {
			return false, err
		}
	}
	l.outcomes[i], l.have[i] = o, true
	l.done++
	if l.progress != nil {
		// Still under l.mu, so progress callbacks are serial.
		l.progress(l.done, len(l.Trials), l.Trials[i], o)
	}
	return true, nil
}

// ResultSet is the work-list with its outcomes in work-list order, for
// a ledger with nothing pending; Executed is what this run recorded, the
// total minus the resumed. The caller owns Elapsed.
func (l *Ledger) ResultSet() *ResultSet {
	l.mu.Lock()
	defer l.mu.Unlock()
	return &ResultSet{
		Spec: l.Spec, Cells: l.Cells, Trials: l.Trials, Outcomes: l.outcomes,
		Executed: len(l.Trials) - len(l.resumed),
	}
}

// Close closes the checkpoint, if there is one.
func (l *Ledger) Close() error {
	if l.ck == nil {
		return nil
	}
	return l.ck.Close()
}
