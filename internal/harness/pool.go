package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Runner executes a Spec's work-list over a worker pool.
type Runner struct {
	// Parallel bounds concurrent trials (<=0: all cores). The output is
	// byte-identical for any value.
	Parallel int
	// Timeout aborts any single trial that runs longer (0: none). A
	// timed-out trial fails the run; its goroutine is abandoned and
	// terminates on its own when the simulation's round budget runs out,
	// keeping the protocol it took off the idle list until then.
	Timeout time.Duration
	// Checkpoint, when non-empty, appends every completed trial to this
	// file so a killed sweep can be resumed.
	Checkpoint string
	// Resume loads an existing checkpoint before running and skips the
	// trials it already holds. A missing checkpoint file starts fresh.
	Resume bool
	// Progress, when set, is called serially after every completed trial.
	Progress func(done, total int, t Trial, o Outcome)

	// execute overrides trial execution (tests only; nil = the spec's
	// executeTrial).
	execute func(s *Spec, t Trial) (Outcome, error)
}

// ResultSet is a Spec's work-list with every Outcome filled in, in
// deterministic work-list order. Elapsed and Executed describe how the
// run went (wall-clock, trials actually simulated vs. replayed from a
// checkpoint); they are observability only and never rendered into the
// byte-identical CSV/JSON data.
type ResultSet struct {
	Spec     *Spec
	Cells    []Cell
	Trials   []Trial
	Outcomes []Outcome

	// Elapsed is the wall-clock duration of the Run call.
	Elapsed time.Duration
	// Executed counts the trials simulated in this run (total minus the
	// ones replayed from a resume checkpoint).
	Executed int
}

// TrialsPerSec returns the executed-trial throughput of the run (0 when
// nothing ran or the clock did not advance).
func (rs *ResultSet) TrialsPerSec() float64 {
	if rs.Elapsed <= 0 || rs.Executed == 0 {
		return 0
	}
	return float64(rs.Executed) / rs.Elapsed.Seconds()
}

// CellRounds returns the per-trial stopping times of one grid cell.
func (rs *ResultSet) CellRounds(ci int) []float64 {
	out := make([]float64, 0, rs.Spec.Trials)
	for i, t := range rs.Trials {
		if t.Cell == ci {
			out = append(out, float64(rs.Outcomes[i].Result.Rounds))
		}
	}
	return out
}

// Run opens the spec's Ledger (expanding it and replaying the checkpoint),
// fans the pending trials out over the pool (RunTrials), and returns the
// ordered results. The returned ResultSet is identical for any Parallel
// value and for any interrupt/resume history.
func (r Runner) Run(spec *Spec) (*ResultSet, error) {
	start := time.Now()
	ledger, err := OpenLedger(spec, r.Checkpoint, r.Resume, r.Progress)
	if err != nil {
		return nil, err
	}
	defer ledger.Close()

	err = r.RunTrials(spec, ledger.Trials, ledger.Pending(), func(i int, o Outcome) error {
		_, err := ledger.Commit(i, o)
		return err
	})
	if err != nil {
		return nil, err
	}
	rs := ledger.ResultSet()
	rs.Elapsed = time.Since(start)
	return rs, nil
}

// RunTrials executes trials[i] for every i in idxs over the pool and
// hands every outcome to done from the worker that ran it. Each trial
// takes a protocol of its shape off the process's idle list and gives its
// own back (see Execute), so the next trial of that shape — the worker's
// next, a fabric worker's next lease, or a later sweep cell's — resets
// what this one built. It runs Run's trials and a fabric worker's leases.
// The first error, the lowest index's, ends the run.
func (r Runner) RunTrials(spec *Spec, trials []Trial, idxs []int, done func(i int, o Outcome) error) error {
	exec := r.execute
	if exec == nil {
		exec = (*Spec).executeTrial
	}
	return forEachIndex(idxs, r.Parallel, func(i int) error {
		o, err := r.runOne(exec, spec, trials[i])
		if err != nil {
			return err
		}
		return done(i, o)
	})
}

// runOne executes one trial, enforcing the per-trial timeout. A trial
// under a timeout runs on a goroutine of its own, which a timeout
// abandons still running, on the protocol it took off the idle list.
func (r Runner) runOne(exec func(*Spec, Trial) (Outcome, error), spec *Spec, t Trial) (Outcome, error) {
	if r.Timeout <= 0 {
		return exec(spec, t)
	}
	type reply struct {
		o   Outcome
		err error
	}
	ch := make(chan reply, 1)
	go func() {
		o, err := exec(spec, t)
		ch <- reply{o, err}
	}()
	timer := time.NewTimer(r.Timeout)
	defer timer.Stop()
	select {
	case rep := <-ch:
		return rep.o, rep.err
	case <-timer.C:
		return Outcome{}, fmt.Errorf("harness: trial %d (graph=%s k=%d trial=%d) timed out after %v",
			t.Index, t.Graph.Name(), t.K, t.Num, r.Timeout)
	}
}

// forEachIndex fans fn out over the given indices with a bounded worker
// pool, failing fast: after the first error no new work is dispatched,
// and the error for the lowest index wins (deterministic error
// reporting). fn may be called concurrently.
func forEachIndex(idxs []int, parallel int, fn func(i int) error) error {
	workers := parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(idxs) {
		workers = len(idxs)
	}
	if workers <= 1 {
		for _, i := range idxs {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(idxs))
	var failed atomic.Bool
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ji := range next {
				if err := fn(idxs[ji]); err != nil {
					errs[ji] = err
					failed.Store(true)
				}
			}
		}()
	}
	for ji := range idxs {
		if failed.Load() {
			break // an error is config-shaped; don't burn the rest of the grid
		}
		next <- ji
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ParallelMap runs fn(0..n-1) across the pool and returns the results in
// index order. fn must derive any randomness from its index alone, which
// makes the output independent of the worker count. On error, the lowest
// failing index's error is returned.
func ParallelMap[T any](n, parallel int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
	}
	err := forEachIndex(idxs, parallel, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
