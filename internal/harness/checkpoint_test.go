package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"algossip/internal/core"
	"algossip/internal/rlnc"
)

func runToCSV(t *testing.T, r Runner, spec Spec) string {
	t.Helper()
	rs, err := r.Run(&spec)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, rs); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestResumeAfterSimulatedKill is the restartability guarantee: a run
// that dies mid-sweep leaves a checkpoint whose resume produces the same
// file as an uninterrupted run — and only re-executes the missing trials.
func TestResumeAfterSimulatedKill(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt")

	uninterrupted := runToCSV(t, Runner{Parallel: 4}, lineSpec())

	// Run once with a checkpoint, then simulate a kill partway through by
	// truncating the file: keep the header and the first completed trial,
	// plus a torn half-written line the killed process left behind.
	full := runToCSV(t, Runner{Parallel: 4, Checkpoint: ckpt}, lineSpec())
	if full != uninterrupted {
		t.Fatalf("checkpointed run differs from plain run:\n%s\nvs\n%s", full, uninterrupted)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 5 {
		t.Fatalf("checkpoint has %d lines, want header + 4 trials", len(lines))
	}
	torn := strings.Join(lines[:2], "") + lines[2][:len(lines[2])/2]
	if err := os.WriteFile(ckpt, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume: the executed-trial count must shrink and the bytes must not.
	var executed atomic.Int32
	r := Runner{Parallel: 4, Checkpoint: ckpt, Resume: true,
		execute: func(s *Spec, tr Trial) (Outcome, error) {
			executed.Add(1)
			return s.executeTrial(tr)
		}}
	resumed := runToCSV(t, r, lineSpec())
	if resumed != uninterrupted {
		t.Errorf("resumed output differs:\ngot:\n%swant:\n%s", resumed, uninterrupted)
	}
	if got := int(executed.Load()); got != 3 {
		t.Errorf("resume re-executed %d trials, want 3 (1 of 4 was checkpointed)", got)
	}

	// A second resume of the now-complete checkpoint runs nothing at all.
	executed.Store(0)
	again := runToCSV(t, r, lineSpec())
	if again != uninterrupted {
		t.Errorf("second resume output differs")
	}
	if got := int(executed.Load()); got != 0 {
		t.Errorf("complete checkpoint still executed %d trials", got)
	}
}

// TestResumeRejectsForeignCheckpoint: a checkpoint written by a different
// spec must be refused, not silently merged.
func TestResumeRejectsForeignCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt")
	runToCSV(t, Runner{Checkpoint: ckpt}, lineSpec())

	other := lineSpec()
	other.Seed = 999 // different seed => different work-list
	if _, err := (Runner{Checkpoint: ckpt, Resume: true}).Run(&other); err == nil ||
		!strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("foreign checkpoint accepted: %v", err)
	}
}

// TestResumeMissingCheckpointStartsFresh: -resume with no file yet is a
// fresh start, which makes restart-in-a-loop scripting trivial.
func TestResumeMissingCheckpointStartsFresh(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "none.ckpt")
	got := runToCSV(t, Runner{Checkpoint: ckpt, Resume: true}, lineSpec())
	want := runToCSV(t, Runner{}, lineSpec())
	if got != want {
		t.Fatalf("fresh resume differs from plain run")
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint not created: %v", err)
	}
}

// TestCheckpointWithoutResumeRestarts: without -resume an existing file
// is truncated, not appended to. Checkpoint lines land in worker-completion
// order (the file is a crash log, not a report), so the two runs are
// compared as sorted line sets, not raw bytes — an append would double the
// set, reordering alone would not change it.
func TestCheckpointWithoutResumeRestarts(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt")
	sortedLines := func(data []byte) string {
		lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	runToCSV(t, Runner{Checkpoint: ckpt}, lineSpec())
	first, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	runToCSV(t, Runner{Checkpoint: ckpt}, lineSpec())
	second, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if sortedLines(first) != sortedLines(second) {
		t.Fatalf("restarted checkpoint differs (appended?):\n%s\nvs\n%s", first, second)
	}
}

// TestTrialTimeout: a hung trial fails the run with a descriptive error
// instead of wedging the sweep forever, and the trial it abandons keeps
// running on the protocol it took off the idle list: the worker's next
// trial of that shape runs on another and returns the outcome of a fresh
// build (under -race, a shared protocol would be a reported race as
// well), and the abandoned trial gives its protocol back only when it
// finishes.
func TestTrialTimeout(t *testing.T) {
	spec := lineSpec()
	r := Runner{Parallel: 2, Timeout: 5 * time.Millisecond,
		execute: func(s *Spec, tr Trial) (Outcome, error) {
			if tr.Index == 2 {
				time.Sleep(200 * time.Millisecond)
			}
			return Outcome{}, nil
		}}
	_, err := r.Run(&spec)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("hung trial not reported: %v", err)
	}

	_, trials, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.executeTrial(trials[0]); err != nil {
		t.Fatal(err)
	}
	newestIdle := func() *rlnc.GenNode {
		if idle := IdleDecoders(); len(idle) > 0 {
			return idle[len(idle)-1]
		}
		return nil
	}
	handed := newestIdle() // node 0's decoder: Renew moves it into each new protocol
	if handed == nil {
		t.Fatal("a uniform-AG trial left no protocol on the idle list")
	}
	release, finished := make(chan struct{}), make(chan struct{})
	r.execute = func(s *Spec, tr Trial) (Outcome, error) {
		gs := s.gossipSpec(tr)
		gs.Observer = heldObserver(release)
		o, err := execute(gs, s.Protocol, tr.Seed, true)
		close(finished)
		return o, err
	}
	if _, err := r.runOne(r.execute, &spec, trials[1]); err == nil {
		t.Fatal("the held trial did not time out")
	}
	if slices.Contains(IdleDecoders(), handed) {
		t.Fatal("the protocol a held trial runs on is on the idle list")
	}
	want, err := spec.ExecuteTrial(trials[0])
	if err != nil {
		t.Fatal(err)
	}
	if got, err := spec.executeTrial(trials[0]); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("the worker's next trial after a timeout: %+v (err %v), want %+v", got, err, want)
	}
	if newestIdle() == handed {
		t.Fatal("the worker's next trial ran on the protocol of the trial that timed out")
	}
	close(release)
	<-finished
	if newestIdle() != handed {
		t.Fatal("the abandoned trial did not give its protocol back when it finished")
	}
}

// heldObserver blocks the run it observes at its first node completion
// until release is closed.
type heldObserver chan struct{}

func (h heldObserver) NodeDone(core.NodeID, int) { <-h }

// TestProgressReporting: the progress callback sees every completion
// exactly once with a monotonically increasing done count.
func TestProgressReporting(t *testing.T) {
	spec := lineSpec()
	var calls int
	last := 0
	r := Runner{Parallel: 4, Progress: func(done, total int, tr Trial, o Outcome) {
		calls++
		if done != last+1 || total != 4 {
			t.Errorf("progress (%d,%d) after %d", done, total, last)
		}
		last = done
	}}
	if _, err := r.Run(&spec); err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Fatalf("progress called %d times, want 4", calls)
	}
}

// TestFingerprintSensitivity: any work-list-shaping field changes the
// fingerprint; unrelated runner settings do not exist on the Spec.
func TestFingerprintSensitivity(t *testing.T) {
	base := lineSpec()
	fp := func(s Spec) string { return s.Fingerprint() }
	if fp(lineSpec()) != fp(base) {
		t.Fatal("fingerprint not stable")
	}
	mutations := []func(*Spec){
		func(s *Spec) { s.Seed++ },
		func(s *Spec) { s.Trials++ },
		func(s *Spec) { s.Sizes = []int{8} },
		func(s *Spec) { s.Protocol = ProtocolUncoded },
		func(s *Spec) { s.KMode = "n" },
		func(s *Spec) { s.Q = 256 },
	}
	for i, mut := range mutations {
		s := lineSpec()
		mut(&s)
		if fp(s) == fp(base) {
			t.Errorf("mutation %d did not change fingerprint", i)
		}
	}

	// The trajectory-deciding fields a store cell has no column for must
	// move the regime key too, and the defaults, however spelled, render
	// as the empty regime.
	regimes := []func(*Spec){
		func(s *Spec) { s.Model = core.Asynchronous },
		func(s *Spec) { s.Action = core.Push },
		func(s *Spec) { s.Action = core.Pull },
		func(s *Spec) { s.Selector = SelRoundRobin },
		func(s *Spec) { s.SingleSource = true },
		func(s *Spec) { s.Shards = 2 },
		func(s *Spec) { s.Adversary = &Adversary{Kind: "byzantine", Frac: 0.2} },
		func(s *Spec) { s.Adversary = &Adversary{Kind: "byzantine", Frac: 0.2, Mode: "replay"} },
		func(s *Spec) { s.Classes = &Classes{Kind: "straggler", Frac: 0.2} },
	}
	seen := map[string]int{}
	for i, mut := range regimes {
		s := lineSpec()
		mut(&s)
		if fp(s) == fp(base) {
			t.Errorf("regime mutation %d did not change fingerprint", i)
		}
		if j, dup := seen[s.Regime()]; dup || s.Regime() == "" {
			t.Errorf("regime mutation %d renders %q, colliding with %d", i, s.Regime(), j)
		}
		seen[s.Regime()] = i
	}
	defaults := lineSpec()
	defaults.Model, defaults.Action, defaults.Selector = core.Synchronous, core.Exchange, SelUniform
	defaults.Adversary, defaults.Classes = &Adversary{Kind: "byzantine"}, &Classes{}
	if r := defaults.Regime(); r != "" || base.Regime() != "" {
		t.Errorf("default regime renders %q / %q, want empty", r, base.Regime())
	}
	all := lineSpec()
	for _, mut := range []int{0, 1, 3, 4, 5, 6, 8} {
		regimes[mut](&all)
	}
	const want = "model=asynchronous/action=PUSH/sel=round-robin/single-source/sharded=1/adv=byzantine:frac=0.2,mode=pollute/classes=straggler:frac=0.2,slow=4"
	if got := all.Regime(); got != want {
		t.Errorf("Regime() = %q\nwant %q", got, want)
	}
}

func TestFailFastWriter(t *testing.T) {
	w := NewFailFastWriter(failingWriter{})
	if _, err := fmt.Fprintf(w, "hello"); err == nil {
		t.Fatal("error not surfaced")
	}
	if w.Err() == nil {
		t.Fatal("error not latched")
	}
}

type failingWriter struct{}

func (failingWriter) Write(p []byte) (int, error) { return 0, fmt.Errorf("sink closed") }
