package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"

	"algossip/internal/core"
	"algossip/internal/jsonl"
)

// checkpointVersion guards the on-disk format.
const checkpointVersion = 1

// ckHeader is the checkpoint file's first line: enough to refuse
// resuming a different spec.
type ckHeader struct {
	V           int    `json:"v"`
	Name        string `json:"name,omitempty"`
	Fingerprint string `json:"fingerprint"`
	Total       int    `json:"total"`
}

// ckEntry is one completed trial, appended as it finishes.
type ckEntry struct {
	I int     `json:"i"`
	O Outcome `json:"o"`
}

// Fingerprint returns a stable digest of every field of the spec that
// influences the work-list (a custom TrialSeed is the caller's
// responsibility to keep stable). Two specs with equal fingerprints
// expand to the same trials, which is what makes a checkpoint safely
// resumable.
func (s *Spec) Fingerprint() string {
	s.normalize()
	var sb strings.Builder
	fmt.Fprintf(&sb, "v%d|name=%s|graph=%s|sizes=%v|", checkpointVersion, s.Name, s.Graph, s.Sizes)
	for _, g := range s.Graphs {
		fmt.Fprintf(&sb, "g=%s/%d|", g.Name(), g.N())
	}
	fmt.Fprintf(&sb, "kmode=%s|ks=%v|proto=%d|model=%d|q=%d|action=%d|sel=%d|single=%t|loss=%g|maxrounds=%d|trials=%d|seed=%d",
		s.KMode, s.Ks, s.Protocol, s.Model, s.Q, s.Action, s.Selector,
		s.SingleSource, s.LossRate, s.MaxRounds, s.Trials, s.Seed)
	// Everything below is append-only: a tag appears only when its regime
	// is in force, so a checkpoint written before the field existed still
	// resumes. The fabric session label binds a coordinator's checkpoint
	// and its workers to one distributed run.
	if !s.Dynamics.IsStatic() {
		fmt.Fprintf(&sb, "|dyn=%s", s.Dynamics.String())
	}
	if s.GenSize > 0 {
		fmt.Fprintf(&sb, "|gens=%d", s.GenSize)
	}
	_, shared := s.regimeTags()
	for _, tag := range shared {
		sb.WriteString("|" + tag)
	}
	if s.Fabric != "" {
		fmt.Fprintf(&sb, "|fabric=%s", s.Fabric)
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

// regimeTags renders the trajectory-deciding fields a result-store cell
// has no column for, each only when it departs from the default: own are
// Regime's alone (the fingerprint's fixed part already has them), shared
// are also the fingerprint's append-only tail, in its order. The sharded
// tag records only that the sharded trajectory semantics apply: the
// shard count is an execution knob (any positive count replays the same
// trajectory), exactly like Runner.Parallel.
func (s *Spec) regimeTags() (own, shared []string) {
	add := func(dst *[]string, on bool, tag string) {
		if on {
			*dst = append(*dst, tag)
		}
	}
	add(&own, s.Model == core.Asynchronous, "model="+s.Model.String())
	add(&own, s.Action == core.Push || s.Action == core.Pull, "action="+s.Action.String())
	add(&own, s.Selector == SelRoundRobin, "sel="+s.Selector.String())
	add(&own, s.SingleSource, "single-source")
	add(&shared, s.Shards > 0, "sharded=1")
	add(&shared, !s.Adversary.IsNone(), "adv="+s.Adversary.String())
	add(&shared, !s.Classes.IsNone(), "classes="+s.Classes.String())
	return own, shared
}

// Regime is the canonical rendering of regimeTags, the empty string at
// the defaults, e.g. "model=asynchronous/action=PUSH/adv=byzantine:frac=0.2,mode=pollute".
// Two specs that differ in it sample different distributions, so a stored
// stopping time belongs to (cell, Regime), not to the cell alone.
func (s *Spec) Regime() string {
	own, shared := s.regimeTags()
	return strings.Join(append(own, shared...), "/")
}

// CheckpointFile is an open checkpoint: previously completed outcomes
// plus an append handle for new ones. The trial Ledger — and through it the
// local Runner and out-of-process coordinators (internal/fabric) — records
// here, on a jsonl.Log: the same header validation, fsync-per-line appends
// and torn-tail recovery, so a fabric coordinator's on-disk state is an
// ordinary checkpoint: resumable, foreign-spec-rejecting, kill-tolerant.
type CheckpointFile struct {
	mu     sync.Mutex
	log    *jsonl.Log
	loaded map[int]Outcome
}

// OpenCheckpointFile opens (and, when resuming, replays) the checkpoint
// at path for the spec's expanded work-list of the given total size.
// Without resume an existing file is emptied and restarted; with resume
// a missing file is an empty checkpoint, a header written by another spec
// is refused, and a torn tail from a kill mid-append is dropped (jsonl's
// rule) so new entries stay line-aligned.
func OpenCheckpointFile(path string, spec *Spec, total int, resume bool) (*CheckpointFile, error) {
	if !resume {
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			return nil, err
		}
	}
	ck := &CheckpointFile{loaded: map[int]Outcome{}}
	want := ckHeader{V: checkpointVersion, Name: spec.Name, Fingerprint: spec.Fingerprint(), Total: total}
	var err error
	ck.log, err = jsonl.Open(path, want, true, func(off int64, line []byte) error {
		if off == 0 {
			return want.check(path, line)
		}
		var e ckEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		if e.I < 0 || e.I >= total {
			return fmt.Errorf("entry index %d out of range [0,%d)", e.I, total)
		}
		ck.loaded[e.I] = e.O
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ck, nil
}

// check validates a checkpoint's header line against the header this spec
// would write.
func (want ckHeader) check(path string, line []byte) error {
	var h ckHeader
	if err := json.Unmarshal(line, &h); err != nil {
		return fmt.Errorf("harness: corrupt checkpoint header in %s: %w", path, err)
	}
	if h.V != want.V {
		return fmt.Errorf("harness: checkpoint %s has version %d, want %d", path, h.V, want.V)
	}
	if h.Fingerprint != want.Fingerprint {
		return fmt.Errorf("harness: checkpoint %s was written by a different spec (fingerprint mismatch)", path)
	}
	if h.Total != want.Total {
		return fmt.Errorf("harness: checkpoint %s expects %d trials, spec expands to %d", path, h.Total, want.Total)
	}
	return nil
}

// Loaded is the set of trial outcomes replayed from disk on open.
func (ck *CheckpointFile) Loaded() map[int]Outcome { return ck.loaded }

// Append durably records one completed trial (safe for concurrent use):
// written and synced before it returns, so a kill loses at most the trial
// in flight.
func (ck *CheckpointFile) Append(i int, o Outcome) error {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	_, err := ck.log.Append(ckEntry{I: i, O: o})
	return err
}

// Close closes the underlying file.
func (ck *CheckpointFile) Close() error { return ck.log.Close() }
