package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"algossip/internal/core"
	"algossip/internal/harness"
	"algossip/internal/harness/harnesstest"
	"algossip/internal/resultstore"
)

// goldenSweeps pins the exact CSV bytes the pre-harness cmd/sweep
// produced for fixed seeds, across protocols and time models. The
// harness refactor must keep fixed-seed output byte-identical, at every
// worker count.
var goldenSweeps = []struct {
	args []string
	want string
}{
	{
		args: []string{"-graph", "line", "-protocol", "ag", "-sizes", "8,12", "-trials", "2", "-seed", "5"},
		want: "graph,protocol,model,n,k,trial,rounds\n" +
			"line-8,uniform-ag,synchronous,8,4,0,20\n" +
			"line-8,uniform-ag,synchronous,8,4,1,20\n" +
			"line-12,uniform-ag,synchronous,12,6,0,28\n" +
			"line-12,uniform-ag,synchronous,12,6,1,24\n",
	},
	{
		args: []string{"-graph", "barbell", "-protocol", "tag", "-kmode", "n", "-sizes", "8,10", "-trials", "2", "-seed", "7"},
		want: "graph,protocol,model,n,k,trial,rounds\n" +
			"barbell-8,tag-brr,synchronous,8,8,0,38\n" +
			"barbell-8,tag-brr,synchronous,8,8,1,40\n" +
			"barbell-10,tag-brr,synchronous,10,10,0,52\n" +
			"barbell-10,tag-brr,synchronous,10,10,1,56\n",
	},
	// Dynamic-topology sweeps share the determinism contract: the CSV is
	// pinned byte-identical across worker counts and resume histories.
	{
		args: []string{"-graph", "torus", "-protocol", "ag", "-sizes", "9,16", "-trials", "2", "-seed", "5", "-dynamics", "edge:rate=0.2"},
		want: "graph,protocol,model,n,k,trial,rounds\n" +
			"torus-3x3,uniform-ag,synchronous,9,4,0,8\n" +
			"torus-3x3,uniform-ag,synchronous,9,4,1,7\n" +
			"torus-4x4,uniform-ag,synchronous,16,8,0,11\n" +
			"torus-4x4,uniform-ag,synchronous,16,8,1,12\n",
	},
	{
		args: []string{"-graph", "ring", "-protocol", "uncoded", "-sizes", "10", "-trials", "2", "-seed", "3", "-dynamics", "churn:rate=0.2,period=8"},
		want: "graph,protocol,model,n,k,trial,rounds\n" +
			"ring-10,uncoded,synchronous,10,5,0,61\n" +
			"ring-10,uncoded,synchronous,10,5,1,104\n",
	},
	{
		args: []string{"-graph", "grid", "-protocol", "uncoded", "-kmode", "sqrt", "-sizes", "9,16", "-trials", "3", "-seed", "11", "-model", "async"},
		want: "graph,protocol,model,n,k,trial,rounds\n" +
			"grid-3x3,uncoded,asynchronous,9,3,0,17\n" +
			"grid-3x3,uncoded,asynchronous,9,3,1,10\n" +
			"grid-3x3,uncoded,asynchronous,9,3,2,11\n" +
			"grid-4x4,uncoded,asynchronous,16,4,0,18\n" +
			"grid-4x4,uncoded,asynchronous,16,4,1,18\n" +
			"grid-4x4,uncoded,asynchronous,16,4,2,15\n",
	},
	// Recorded from the last commit whose sweep parsed these words by
	// hand; parentAdversaryCkpt below is that run's checkpoint.
	{
		args: []string{"-graph", "complete", "-sizes", "16,24", "-trials", "2", "-seed", "7", "-generations", "4",
			"-adversary", "byzantine:frac=0.2", "-classes", "straggler:frac=0.25,slow=3"},
		want: "graph,protocol,model,n,k,trial,rounds\n" +
			"complete-16,uniform-ag,synchronous,16,8,0,25\n" +
			"complete-16,uniform-ag,synchronous,16,8,1,50\n" +
			"complete-24,uniform-ag,synchronous,24,12,0,82\n" +
			"complete-24,uniform-ag,synchronous,24,12,1,57\n",
	},
}

func TestSweepGoldenOutput(t *testing.T) {
	for _, g := range goldenSweeps {
		for _, workers := range []int{1, 4, 16} {
			args := append([]string{"-parallel", strconv.Itoa(workers)}, g.args...)
			var buf bytes.Buffer
			if err := run(args, &buf); err != nil {
				t.Fatalf("run(%v): %v", args, err)
			}
			if buf.String() != g.want {
				t.Errorf("run(%v) output changed:\ngot:\n%swant:\n%s", args, buf.String(), g.want)
			}
		}
	}
}

// TestSweepOneGenerationIsClassic pins the unification rule at the binary
// every CI smoke job drives: -generations equal to k is one generation,
// which is the classic protocol, so the sweep's CSV (rounds column
// included) equals the same sweep without -generations.
func TestSweepOneGenerationIsClassic(t *testing.T) {
	base := []string{"-graph", "ring", "-sizes", "12,16", "-kmode", "const:8", "-trials", "3", "-seed", "5"}
	var classic, oneGen bytes.Buffer
	if err := run(base, &classic); err != nil {
		t.Fatal(err)
	}
	if err := run(append([]string{"-generations", "8"}, base...), &oneGen); err != nil {
		t.Fatal(err)
	}
	if classic.String() != oneGen.String() {
		t.Errorf("-generations 8 at k=8 diverged from the classic sweep:\ngot:\n%swant:\n%s", oneGen.String(), classic.String())
	}
}

func TestSweepEndToEnd(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "sweep.csv")
	err := run([]string{
		"-graph", "line", "-protocol", "ag", "-sizes", "8,12",
		"-trials", "2", "-out", out, "-seed", "5",
	}, os.Stdout)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	// Header + 2 sizes x 2 trials.
	if len(lines) != 5 {
		t.Fatalf("CSV has %d lines, want 5:\n%s", len(lines), data)
	}
	if !strings.HasPrefix(lines[0], "graph,protocol,model,n,k,trial,rounds") {
		t.Fatalf("bad header: %s", lines[0])
	}
	if !strings.Contains(lines[1], "line-8,uniform-ag,synchronous,8,4,0,") {
		t.Fatalf("bad row: %s", lines[1])
	}
}

func TestSweepJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{
		"-graph", "line", "-sizes", "8", "-trials", "1", "-json",
	}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"graph": "line-8"`, `"rounds":`, `"trial": 0`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON output missing %s:\n%s", want, out)
		}
	}
}

func TestSweepResumeFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt")
	args := []string{"-graph", "line", "-sizes", "8,12", "-trials", "2",
		"-seed", "5", "-checkpoint", ckpt}

	var full bytes.Buffer
	if err := run(args, &full); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill: drop the checkpoint's tail, then resume.
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 4 {
		t.Fatalf("checkpoint too short: %d lines", len(lines))
	}
	if err := os.WriteFile(ckpt, []byte(strings.Join(lines[:3], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	var resumed bytes.Buffer
	if err := run(append(args, "-resume"), &resumed); err != nil {
		t.Fatal(err)
	}
	if resumed.String() != full.String() {
		t.Errorf("resumed output differs from uninterrupted run:\ngot:\n%swant:\n%s",
			resumed.String(), full.String())
	}
}

// TestSweepResumesParentCheckpoint: a checkpoint written before the Spec
// bound its own flags (header + the first two trials of the adversarial
// golden above) is still recognised — same fingerprint from the same
// words — and resumes to the same bytes.
func TestSweepResumesParentCheckpoint(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "parent_adversary.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "parent.ckpt")
	if err := os.WriteFile(ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	g := goldenSweeps[len(goldenSweeps)-1]
	var resumed bytes.Buffer
	if err := run(append([]string{"-checkpoint", ckpt, "-resume"}, g.args...), &resumed); err != nil {
		t.Fatal(err)
	}
	if resumed.String() != g.want {
		t.Errorf("resume from the parent's checkpoint differs:\ngot:\n%swant:\n%s", resumed.String(), g.want)
	}
}

// TestSweepActionFlag: -action reaches the Spec (it used to exist on
// gossipsim only), so the CSV equals the library run of the same Spec.
func TestSweepActionFlag(t *testing.T) {
	var got bytes.Buffer
	if err := run([]string{"-graph", "ring", "-sizes", "12", "-trials", "3", "-seed", "3", "-action", "push"}, &got); err != nil {
		t.Fatal(err)
	}
	spec := harness.Spec{Name: "sweep", Graph: "ring", Sizes: []int{12}, Q: 2, Action: core.Push, Trials: 3, Seed: 3}
	rs, err := harness.Runner{Parallel: 1}.Run(&spec)
	if err != nil {
		t.Fatal(err)
	}
	var want, exchange bytes.Buffer
	if err := harness.WriteCSV(&want, rs); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("-action push:\ngot:\n%swant:\n%s", got.String(), want.String())
	}
	if err := run([]string{"-graph", "ring", "-sizes", "12", "-trials", "3", "-seed", "3"}, &exchange); err != nil {
		t.Fatal(err)
	}
	if got.String() == exchange.String() {
		t.Error("-action push ran the EXCHANGE trajectory")
	}
}

// TestSweepDynamicsResume: a dynamics sweep killed mid-run resumes to
// the identical output bytes.
func TestSweepDynamicsResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "dyn.ckpt")
	args := []string{"-graph", "torus", "-protocol", "ag", "-sizes", "9,16",
		"-trials", "2", "-seed", "5", "-dynamics", "edge:rate=0.2", "-checkpoint", ckpt}

	var full bytes.Buffer
	if err := run(args, &full); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 4 {
		t.Fatalf("checkpoint too short: %d lines", len(lines))
	}
	if err := os.WriteFile(ckpt, []byte(strings.Join(lines[:3], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	var resumed bytes.Buffer
	if err := run(append(args, "-resume"), &resumed); err != nil {
		t.Fatal(err)
	}
	if resumed.String() != full.String() {
		t.Errorf("resumed dynamics output differs:\ngot:\n%swant:\n%s",
			resumed.String(), full.String())
	}
	// A checkpoint written with different dynamics must be rejected.
	other := []string{"-graph", "torus", "-protocol", "ag", "-sizes", "9,16",
		"-trials", "2", "-seed", "5", "-dynamics", "edge:rate=0.4",
		"-checkpoint", ckpt, "-resume"}
	if err := run(other, os.Stdout); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("foreign dynamics checkpoint accepted: %v", err)
	}
}

func TestSweepRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-protocol", "bogus"},
		{"-graph", "bogus"},
		{"-sizes", "nope"},
		{"-kmode", "nope"},
		{"-trials", "0"},
		{"-resume"},                      // -resume without -checkpoint
		{"-dynamics", "bogus"},           // unknown schedule kind
		{"-dynamics", "edge:rate=1.5"},   // rate out of range
		{"-dynamics", "churn:period=-1"}, // bad cadence
	} {
		if err := run(args, os.Stdout); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
	harnesstest.RejectsBadSpecWords(t, run)
	// A refused combination fails before the pool starts.
	if err := run([]string{"-protocol", "tag", "-generations", "4"}, os.Stdout); err == nil ||
		!strings.Contains(err.Error(), "cell n=") {
		t.Errorf("tag x generations: %v, want Expand's per-cell refusal", err)
	}
	// -action on a tree protocol used to be accepted, run EXCHANGE, and
	// file the rows under regime=action=PUSH; now nothing reaches the store.
	storePath := filepath.Join(t.TempDir(), "results.jsonl")
	err := run([]string{"-protocol", "tag", "-action", "push", "-sizes", "16", "-store", storePath}, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "EXCHANGE with the tree parent") {
		t.Errorf("tag x push: %v, want the model's reason", err)
	}
	if _, serr := os.Stat(storePath); !os.IsNotExist(serr) {
		t.Errorf("refused sweep left a store behind: %v", serr)
	}
	if err := run([]string{"-q", "300", "-sizes", "16"}, os.Stdout); err == nil || !strings.Contains(err.Error(), "supported: 2, 4, 8") {
		t.Errorf("-q 300: %v, want the supported orders", err)
	}
}

// TestSweepStoreIngest: -store mirrors the CSV rows into the result
// store, queryable by cell with tail quantiles and no CSV re-parsing.
func TestSweepStoreIngest(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "results.jsonl")
	var buf bytes.Buffer
	if err := run([]string{"-graph", "line", "-protocol", "ag", "-sizes", "8,12",
		"-trials", "2", "-seed", "5", "-store", storePath}, &buf); err != nil {
		t.Fatal(err)
	}
	store, err := resultstore.Open(storePath)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ts, err := store.Tail(resultstore.Filter{Spec: "sweep", Graph: "line", N: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Golden rows for this seed: n=8 trials are 20,20.
	if ts.Trials != 2 || ts.Mean != 20 || ts.P99 != 20 || ts.Max != 20 {
		t.Fatalf("store tail = %+v", ts)
	}
	if cells := store.Cells(); len(cells) != 2 {
		t.Fatalf("store has %d cells, want 2", len(cells))
	}
}

// TestSweepStoreKeepsRegimesApart: runs of one (graph, n, k, q) cell that
// differ only in time model, action, adversary or classes sample
// different distributions, so each lands in its own store cell — they
// used to merge into one cell and one tail summary.
func TestSweepStoreKeepsRegimesApart(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "results.jsonl")
	base := []string{"-graph", "complete", "-sizes", "16", "-trials", "4", "-seed", "2", "-store", storePath}
	regimes := [][]string{
		nil,
		{"-model", "async"},
		{"-action", "push"},
		{"-adversary", "byzantine:frac=0.2"},
		{"-classes", "straggler:frac=0.2"},
	}
	for _, r := range regimes {
		if err := run(append(append([]string{}, base...), r...), new(bytes.Buffer)); err != nil {
			t.Fatalf("run(%v): %v", r, err)
		}
	}
	store, err := resultstore.Open(storePath)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cells := store.Cells()
	if len(cells) != len(regimes) {
		t.Fatalf("store has %d cells for %d regimes: %+v", len(cells), len(regimes), cells)
	}
	for _, c := range cells {
		if c.Trials != 4 {
			t.Errorf("cell %+v holds %d trials, want its own 4", c.Cell, c.Trials)
		}
	}
	for regime, want := range map[string]int{
		"":                                    4,
		"model=asynchronous":                  4,
		"action=PUSH":                         4,
		"adv=byzantine:frac=0.2,mode=pollute": 4,
		"classes=straggler:frac=0.2,slow=4":   4,
		"action=PULL":                         0,
	} {
		ts, err := store.Tail(resultstore.Filter{Graph: "complete", N: 16, Regime: regime, HasRegime: true})
		if err != nil || ts.Trials != want {
			t.Errorf("regime %q: %d trials (err=%v), want %d", regime, ts.Trials, err, want)
		}
	}
	if ts, _ := store.Tail(resultstore.Filter{Graph: "complete", N: 16}); ts.Trials != 20 {
		t.Errorf("regime wildcard matched %d trials, want all 20", ts.Trials)
	}
}

// failWriter rejects every write, for write-error propagation tests.
type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("disk full") }

func TestSweepPropagatesWriteErrors(t *testing.T) {
	err := run([]string{"-graph", "line", "-sizes", "8", "-trials", "1"}, failWriter{})
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("write error not propagated: %v", err)
	}
}

// TestProfileFlagsSmoke checks -cpuprofile/-memprofile/-trace write
// non-empty diagnostics files on clean exit without disturbing the CSV.
func TestProfileFlagsSmoke(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	trc := filepath.Join(dir, "trace.out")
	var buf bytes.Buffer
	args := []string{"-graph", "line", "-protocol", "ag", "-sizes", "8", "-trials", "1", "-seed", "5",
		"-cpuprofile", cpu, "-memprofile", mem, "-trace", trc}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "graph,protocol,model,n,k,trial,rounds\n") {
		t.Fatalf("CSV output disturbed: %q", buf.String())
	}
	for _, path := range []string{cpu, mem, trc} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile %s missing: %v", path, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
}

// TestProfileFlagBadPath: an unwritable profile path fails up front.
func TestProfileFlagBadPath(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-graph", "line", "-sizes", "8", "-trials", "1",
		"-cpuprofile", filepath.Join(t.TempDir(), "missing-dir", "cpu.pprof")}, &buf)
	if err == nil {
		t.Fatal("expected error for unwritable cpuprofile path")
	}
}
