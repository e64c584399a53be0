package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"algossip/internal/core"
	"algossip/internal/ctlhttp"
	"algossip/internal/harness"
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

// sweep runs one command line locally, stderr discarded.
func sweep(args []string, stdout io.Writer) error {
	return run(context.Background(), args, stdout, io.Discard)
}

func TestSweepGoldenOutput(t *testing.T) {
	for _, g := range goldenSweeps {
		for _, workers := range []int{1, 4, 16} {
			args := append([]string{"-parallel", strconv.Itoa(workers)}, g.args...)
			var buf bytes.Buffer
			if err := sweep(args, &buf); err != nil {
				t.Fatalf("sweep(%v): %v", args, err)
			}
			if buf.String() != g.want {
				t.Errorf("sweep(%v) output changed:\ngot:\n%swant:\n%s", args, buf.String(), g.want)
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
	if err := sweep(base, &classic); err != nil {
		t.Fatal(err)
	}
	if err := sweep(append([]string{"-generations", "8"}, base...), &oneGen); err != nil {
		t.Fatal(err)
	}
	if classic.String() != oneGen.String() {
		t.Errorf("-generations 8 at k=8 diverged from the classic sweep:\ngot:\n%swant:\n%s", oneGen.String(), classic.String())
	}
}

func TestSweepEndToEnd(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "sweep.csv")
	err := sweep([]string{
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

func TestSweepResumeFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt")
	args := []string{"-graph", "line", "-sizes", "8,12", "-trials", "2",
		"-seed", "5", "-checkpoint", ckpt}

	var full bytes.Buffer
	if err := sweep(args, &full); err != nil {
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
	if err := sweep(append(args, "-resume"), &resumed); err != nil {
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
	if err := sweep(append([]string{"-checkpoint", ckpt, "-resume"}, g.args...), &resumed); err != nil {
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
	if err := sweep([]string{"-graph", "ring", "-sizes", "12", "-trials", "3", "-seed", "3", "-action", "push"}, &got); err != nil {
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
	if err := sweep([]string{"-graph", "ring", "-sizes", "12", "-trials", "3", "-seed", "3"}, &exchange); err != nil {
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
	if err := sweep(args, &full); err != nil {
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
	if err := sweep(append(args, "-resume"), &resumed); err != nil {
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
	if err := sweep(other, os.Stdout); err == nil || !strings.Contains(err.Error(), "fingerprint") {
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
		if err := sweep(args, os.Stdout); err == nil {
			t.Errorf("sweep(%v) accepted", args)
		}
	}
	rejectsBadSpecWords(t, sweep)
	// A refused combination fails before the pool starts.
	if err := sweep([]string{"-protocol", "tag", "-generations", "4"}, os.Stdout); err == nil ||
		!strings.Contains(err.Error(), "cell n=") {
		t.Errorf("tag x generations: %v, want Expand's per-cell refusal", err)
	}
	// -action on a tree protocol used to be accepted, run EXCHANGE, and
	// file the rows under regime=action=PUSH; now nothing reaches the store.
	storePath := filepath.Join(t.TempDir(), "results.jsonl")
	err := sweep([]string{"-protocol", "tag", "-action", "push", "-sizes", "16", "-store", storePath}, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "EXCHANGE with the tree parent") {
		t.Errorf("tag x push: %v, want the model's reason", err)
	}
	if _, serr := os.Stat(storePath); !os.IsNotExist(serr) {
		t.Errorf("refused sweep left a store behind: %v", serr)
	}
	if err := sweep([]string{"-q", "300", "-sizes", "16"}, os.Stdout); err == nil || !strings.Contains(err.Error(), "supported: 2, 4, 8") {
		t.Errorf("-q 300: %v, want the supported orders", err)
	}

	// A served sweep refuses the same words before it binds. Its context is
	// already cancelled, so a spec let through would serve nothing and
	// return context.Canceled, which counts as accepted here.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	rejectsBadSpecWords(t, func(args []string, stdout io.Writer) error {
		err := run(cancelled, append([]string{"-listen", "127.0.0.1:0"}, args...), stdout, io.Discard)
		if errors.Is(err, context.Canceled) {
			return nil
		}
		return err
	})
	// An unbuildable field used to start the coordinator and kill its first
	// worker; now the spec is refused before the listener: on a port that is
	// taken, the answer is still the field order, not "address in use".
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	taken := ln.Addr().String()
	if err := sweep([]string{"-q", "6", "-sizes", "16", "-listen", taken}, io.Discard); err == nil || !strings.Contains(err.Error(), "supported: 2, 4, 8") {
		t.Errorf("-listen -q 6: %v, want a refusal naming the supported orders", err)
	}

	// A flag the chosen mode would ignore is refused by name.
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"-session", "ci"}, "-session"},
		{[]string{"-lease-chunk", "8"}, "-lease-chunk"},
		{[]string{"-lease-ttl", "2s"}, "-lease-ttl"},
		{[]string{"-listen", taken, "-parallel", "2"}, "-parallel"},
		{[]string{"-listen", taken, "-timeout", "1s"}, "-timeout"},
		{[]string{"-listen", taken, "-resume"}, "-checkpoint"},
		{[]string{"-parallel", "-2"}, "-parallel -2"}, // used to mean all cores
	} {
		if err := sweep(c.args, io.Discard); err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("sweep %v: %v, want a refusal naming %s", c.args, err, c.flag)
		}
	}
}

// TestSweepFlagsByMode: in each of sweep's three modes — local, served
// (-listen) and worker (-join) — every flag sweep registers is either used
// or refused with its name in the error, so a flag added later cannot be
// silently ignored in one of them. The context is cancelled: a served
// sweep or a worker that accepts its command line returns
// context.Canceled, and a local one runs its single small trial.
func TestSweepFlagsByMode(t *testing.T) {
	dir := t.TempDir()
	file := func(name string) string { return filepath.Join(dir, name) }
	// One command line per flag, and the modes that use it. -listen and
	// -join switch modes, so they are only passed in their own.
	flags := map[string]struct {
		args  []string
		modes string
	}{
		"graph":         {[]string{"-graph", "ring"}, "local listen"},
		"sizes":         {[]string{"-sizes", "12"}, "local listen"},
		"kmode":         {[]string{"-kmode", "n"}, "local listen"},
		"protocol":      {[]string{"-protocol", "tag"}, "local listen"},
		"model":         {[]string{"-model", "async"}, "local listen"},
		"q":             {[]string{"-q", "4"}, "local listen"},
		"action":        {[]string{"-action", "push"}, "local listen"},
		"dynamics":      {[]string{"-dynamics", "edge:rate=0.1"}, "local listen"},
		"adversary":     {[]string{"-adversary", "byzantine:frac=0.2"}, "local listen"},
		"classes":       {[]string{"-classes", "straggler:frac=0.2"}, "local listen"},
		"generations":   {[]string{"-generations", "2"}, "local listen"},
		"shards":        {[]string{"-shards", "2"}, "local listen"},
		"trials":        {[]string{"-trials", "1"}, "local listen"},
		"single-source": {[]string{"-single-source"}, "local listen"},
		"seed":          {[]string{"-seed", "3"}, "local listen"},
		"detail":        {[]string{"-detail"}, "local listen"},
		"parallel":      {[]string{"-parallel", "1"}, "local join"},
		"timeout":       {[]string{"-timeout", "1m"}, "local"},
		"listen":        {[]string{"-listen", "127.0.0.1:0"}, "listen"},
		"join":          {[]string{"-join", "http://127.0.0.1:1"}, "join"},
		"session":       {[]string{"-session", "ci"}, "listen"},
		"lease-chunk":   {[]string{"-lease-chunk", "2"}, "listen"},
		"lease-ttl":     {[]string{"-lease-ttl", "2s"}, "listen"},
		"checkpoint":    {[]string{"-checkpoint", file("ckpt")}, "local listen"},
		"resume":        {[]string{"-checkpoint", file("resumed.ckpt"), "-resume"}, "local listen"},
		"store":         {[]string{"-store", file("store.jsonl")}, "local listen"},
		"progress":      {[]string{"-progress"}, "local listen"},
		"out":           {[]string{"-out", file("out.csv")}, "local listen"},
		"cpuprofile":    {[]string{"-cpuprofile", file("cpu.prof")}, "local listen join"},
		"memprofile":    {[]string{"-memprofile", file("mem.prof")}, "local listen join"},
		"trace":         {[]string{"-trace", file("trace.out")}, "local listen join"},
	}
	modes := map[string][]string{
		"local":  {"-sizes", "8", "-trials", "1"},
		"listen": {"-listen", "127.0.0.1:0", "-sizes", "8", "-trials", "1"},
		"join":   {"-join", "http://127.0.0.1:1"},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	fs, _ := command(io.Discard, io.Discard)
	fs.VisitAll(func(f *flag.Flag) {
		row, ok := flags[f.Name]
		if !ok {
			t.Errorf("-%s has no row here: say which modes use it, and refuse it in the others", f.Name)
			return
		}
		for mode, base := range modes {
			uses := strings.Contains(" "+row.modes+" ", " "+mode+" ")
			if !uses && (f.Name == "listen" || f.Name == "join") {
				continue
			}
			args := append(slices.Clone(base), row.args...)
			err := run(cancelled, args, io.Discard, io.Discard)
			if uses {
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Errorf("%s mode: sweep %v: %v", mode, args, err)
				}
			} else if !refuses(err, f.Name) {
				t.Errorf("%s mode: sweep %v: %v, want a refusal naming -%s", mode, args, err, f.Name)
			}
		}
	})
	// A worker needs a coordinator URL and a pool size it can use, and a
	// stray word is no mode of its own.
	for _, args := range [][]string{
		{"-join"},
		{"-join", ""},
		{"worker"},
		{"-join", "http://127.0.0.1:1", "-parallel", "-3"}, // not all cores
	} {
		if err := run(cancelled, args, io.Discard, io.Discard); err == nil || errors.Is(err, context.Canceled) {
			t.Errorf("sweep %v accepted", args)
		}
	}
}

// refuses reports whether err is a refusal that names -name among the
// flags a mode ignores.
func refuses(err error, name string) bool {
	if err == nil {
		return false
	}
	names, _, ok := strings.Cut(err.Error(), ": ")
	return ok && slices.Contains(strings.Fields(names), "-"+name)
}

// rejectsBadSpecWords runs the malformed experiment words against one way
// of running a sweep (local or served); each must be refused before any
// work is done. The words reach the flag parsers, which the harness's
// fuzz target does not.
func rejectsBadSpecWords(t *testing.T, run func(args []string, stdout io.Writer) error) {
	t.Helper()
	for _, args := range [][]string{
		{"-protocol", "bogus"},
		{"-model", "bogus"},
		{"-action", "sideways"},
		{"-dynamics", "edge:rate=1.5"},
		{"-dynamics", "edge:rate=NaN"}, // NaN passes a range written as x < 0 || x >= 1
		{"-dynamics", "churn:rate=NaN"},
		{"-dynamics", "static:rate=0.5"}, // static takes no options
		{"-dynamics", "static:period=7"},
		{"-dynamics", "static:burst=3"},
		{"-adversary", "byzantine:frac=2"},
		{"-adversary", "byzantine:frac=NaN"},
		{"-classes", "nope"},
		{"-classes", "straggler:frac=NaN"},
		{"-q", "6"},                             // no such field: refused, not a gf.MustNew panic in the pool
		{"-q", "300"},                           // over the byte representation
		{"-protocol", "tag", "-action", "push"}, // TAG's Phase 2 is an EXCHANGE
		{"-protocol", "tag-is", "-action", "pull"},
		{"-protocol", "tag", "-dynamics", "edge:rate=0.2"}, // a tree protocol runs on a static graph
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

// TestSweepStoreIngest: -store mirrors the CSV rows into the result
// store, queryable by cell with tail quantiles and no CSV re-parsing.
func TestSweepStoreIngest(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "results.jsonl")
	var buf bytes.Buffer
	if err := sweep([]string{"-graph", "line", "-protocol", "ag", "-sizes", "8,12",
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
		if err := sweep(append(append([]string{}, base...), r...), new(bytes.Buffer)); err != nil {
			t.Fatalf("sweep(%v): %v", r, err)
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
	err := sweep([]string{"-graph", "line", "-sizes", "8", "-trials", "1"}, failWriter{})
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("write error not propagated: %v", err)
	}
}

// TestSweepRefusalKeepsOutFile: a sweep refused before it runs, served or
// not, leaves an existing -out file byte-identical; one that runs replaces
// the file whole, however long it was; and an unwritable -out fails before
// the first trial (nothing reaches the checkpoint).
func TestSweepRefusalKeepsOutFile(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "keep.csv")
	precious := []byte(strings.Repeat("precious\n", 200))
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"-q", "6", "-sizes", "16"},
		{"-protocol", "tag", "-action", "push", "-sizes", "16"},
		{"-listen", "127.0.0.1:0", "-q", "6", "-sizes", "16"},
		{"-listen", "127.0.0.1:0", "-protocol", "tag", "-action", "push", "-sizes", "16"},
	} {
		if err := os.WriteFile(out, precious, 0o644); err != nil {
			t.Fatal(err)
		}
		// A served spec let through would return context.Canceled.
		if err := run(cancelled, append([]string{"-out", out}, args...), io.Discard, io.Discard); err == nil || errors.Is(err, context.Canceled) {
			t.Errorf("sweep %v accepted", args)
		}
		if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, precious) {
			t.Errorf("refused sweep %v left -out at %d bytes (%v), want the %d it had", args, len(got), err, len(precious))
		}
	}

	g := goldenSweeps[0]
	if err := sweep(append([]string{"-out", out}, g.args...), io.Discard); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(out); string(got) != g.want {
		t.Errorf("a sweep over a longer file wrote:\n%s\nwant:\n%s", got, g.want)
	}
	if err := sweep(append([]string{"-out", os.DevNull}, g.args...), io.Discard); err != nil {
		t.Errorf("-out %s: %v", os.DevNull, err)
	}

	ckpt := filepath.Join(dir, "sweep.ckpt")
	args := append([]string{"-out", filepath.Join(dir, "no", "such", "dir.csv"), "-checkpoint", ckpt}, g.args...)
	if err := sweep(args, io.Discard); err == nil {
		t.Error("an unwritable -out was accepted")
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("an unwritable -out failed after the pool started: checkpoint %v", err)
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
	if err := sweep(args, &buf); err != nil {
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
	err := sweep([]string{"-graph", "line", "-sizes", "8", "-trials", "1",
		"-cpuprofile", filepath.Join(t.TempDir(), "missing-dir", "cpu.pprof")}, &buf)
	if err == nil {
		t.Fatal("expected error for unwritable cpuprofile path")
	}
}

// serving starts `sweep -listen 127.0.0.1:0` on args and returns the URL
// its first stderr line names, the rest of stderr (complete once the run
// has returned) and the run's result. afterFirst, when set, reads stderr
// right after the address line and returns before the rest is drained.
func serving(t *testing.T, ctx context.Context, args []string, afterFirst func(*bufio.Reader)) (string, *bytes.Buffer, <-chan error) {
	t.Helper()
	pr, pw := io.Pipe()
	result := make(chan error, 1)
	go func() {
		err := run(ctx, append([]string{"-listen", "127.0.0.1:0"}, args...), io.Discard, pw)
		_ = pw.Close()
		result <- err
	}()
	stderr := bufio.NewReader(pr)
	line, err := stderr.ReadString('\n')
	if err != nil {
		t.Fatalf("served sweep exited without announcing its address: %v", <-result)
	}
	url, ok := strings.CutPrefix(line, "sweep: serving ")
	url, _, _ = strings.Cut(url, " ")
	if !ok || !strings.HasPrefix(url, "http://127.0.0.1:") {
		t.Fatalf("first stderr line %q names no address", line)
	}
	rest, drained := new(bytes.Buffer), make(chan error, 1)
	go func() {
		if afterFirst != nil {
			afterFirst(stderr)
		}
		_, _ = io.Copy(rest, stderr)
		drained <- <-result
	}()
	return url, rest, drained
}

// join runs `sweep -join url -parallel parallel` until the served sweep
// completes, and returns the count of trials its last stderr line reports.
func join(ctx context.Context, url string, parallel int) (int, error) {
	var stderr bytes.Buffer
	if err := run(ctx, []string{"-join", url, "-parallel", strconv.Itoa(parallel)}, io.Discard, &stderr); err != nil {
		return 0, err
	}
	var name string
	var n int
	if _, err := fmt.Sscanf(stderr.String(), "sweep: worker %s executed %d trials\n", &name, &n); err != nil {
		return 0, fmt.Errorf("worker stderr %q: %w", stderr.String(), err)
	}
	return n, nil
}

// TestSweepServesFabric: the same words run on the local pool and served
// to a fabric worker give the same CSV — the pinned golden, and an
// adversarial PUSH regime with node classes — while the session,
// checkpoint, store and the lingering /status answer along the way.
func TestSweepServesFabric(t *testing.T) {
	for _, c := range []struct {
		name   string
		words  []string
		want   string // also pinned, when set
		tail   resultstore.Filter
		p99    float64 // of tail, when set
		regime string  // the regime both cells store
	}{
		{
			name:  "golden",
			words: goldenSweeps[0].args,
			want:  goldenSweeps[0].want,
			tail:  resultstore.Filter{Spec: "sweep", Graph: "line", N: 8},
			p99:   20,
		},
		{
			name: "adversarial-push",
			words: []string{"-graph", "complete", "-sizes", "24,32", "-trials", "2", "-seed", "9",
				"-adversary", "byzantine:frac=0.1,mode=pollute", "-classes", "straggler:frac=0.2,slow=4", "-action", "push"},
			tail: resultstore.Filter{Graph: "complete", N: 24, HasRegime: true,
				Regime: "action=PUSH/adv=byzantine:frac=0.1,mode=pollute/classes=straggler:frac=0.2,slow=4"},
			regime: "action=PUSH/adv=byzantine:frac=0.1,mode=pollute/classes=straggler:frac=0.2,slow=4",
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			var local bytes.Buffer
			if err := sweep(append([]string{"-parallel", "1"}, c.words...), &local); err != nil {
				t.Fatal(err)
			}
			if c.want != "" && local.String() != c.want {
				t.Fatalf("local pool CSV moved off the pin:\n%s", local.String())
			}

			dir := t.TempDir()
			out := filepath.Join(dir, "fab.csv")
			storePath := filepath.Join(dir, "results.jsonl")
			url, _, result := serving(t, context.Background(), append([]string{
				"-session", "ci", "-checkpoint", filepath.Join(dir, "fab.ckpt"),
				"-store", storePath, "-out", out, "-lease-chunk", "2",
			}, c.words...), nil)

			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			n, err := join(ctx, url, 2)
			if err != nil || n != 4 {
				t.Fatalf("worker executed %d trials: %v", n, err)
			}
			// The sweep lingers after completion; /status reports the
			// finished counters while it does.
			var status bytes.Buffer
			if err := (ctlhttp.Client{Base: url}).Do(ctx, http.MethodGet, "/status", nil, &status); err != nil ||
				!strings.Contains(status.String(), `"done":4`) {
				t.Fatalf("status = %q, %v", status.String(), err)
			}
			if err := <-result; err != nil {
				t.Fatalf("served sweep: %v", err)
			}
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != local.String() {
				t.Fatalf("served CSV differs from the local pool's:\ngot:\n%swant:\n%s", data, local.String())
			}

			// The store answers the tail query without touching the CSV,
			// each cell under the regime its rows declared.
			store, err := resultstore.Open(storePath)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			if ts, err := store.Tail(c.tail); err != nil || ts.Trials != 2 || (c.p99 != 0 && ts.P99 != c.p99) {
				t.Fatalf("tail %+v = %+v, %v", c.tail, ts, err)
			}
			cells := store.Cells()
			if len(cells) != 2 {
				t.Fatalf("store has %d cells, want 2: %+v", len(cells), cells)
			}
			for _, cc := range cells {
				if cc.Cell.Regime != c.regime || cc.Trials != 2 {
					t.Errorf("cell %+v holds %d trials, want regime %q and 2", cc.Cell, cc.Trials, c.regime)
				}
			}
			// The default regime holds exactly the rows that declared none.
			ts, err := store.Tail(resultstore.Filter{HasRegime: true})
			if err != nil || (ts.Trials == 4) != (c.regime == "") {
				t.Fatalf("default-regime tail = %+v, %v, with cells under %q", ts, err, c.regime)
			}
		})
	}
}

// TestSweepServedResumesAfterCancel: a served sweep stopped mid-run (as a
// signal stops it) keeps what its workers delivered in the checkpoint,
// and -resume serves only the rest, to the local pool's bytes.
func TestSweepServedResumesAfterCancel(t *testing.T) {
	words := []string{"-graph", "ring", "-sizes", "16,24", "-trials", "30", "-seed", "3"}
	var want bytes.Buffer
	if err := sweep(append([]string{"-parallel", "1"}, words...), &want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "fab.csv")
	args := append([]string{"-checkpoint", filepath.Join(dir, "fab.ckpt"), "-lease-chunk", "1", "-progress", "-out", out}, words...)
	work := func(ctx context.Context, url string) <-chan error {
		done := make(chan error, 1)
		go func() {
			_, err := join(ctx, url, 1)
			done <- err
		}()
		return done
	}

	// Cancel once the first accepted trial is reported. The progress line
	// waits on the pipe until it is read, so the sweep is still short of
	// its 60 trials when it hears the cancel.
	ctx, cancel := context.WithCancel(context.Background())
	url, _, result := serving(t, ctx, args, func(stderr *bufio.Reader) {
		if _, err := stderr.ReadString(')'); err == nil {
			cancel()
		}
	})
	workerCtx, stopWorker := context.WithCancel(context.Background())
	worker := work(workerCtx, url)
	if err := <-result; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled served sweep: %v, want context.Canceled", err)
	}
	stopWorker()
	<-worker

	url, stderr, result := serving(t, context.Background(), append([]string{"-resume"}, args...), nil)
	if err := <-work(context.Background(), url); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if err := <-result; err != nil {
		t.Fatalf("resumed served sweep: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != want.String() {
		t.Fatalf("resumed served CSV differs from the local pool's:\ngot:\n%swant:\n%s", data, want.String())
	}
	var total, executed, resumed int
	footer := stderr.String()[strings.LastIndex(stderr.String(), "sweep: "):]
	if _, err := fmt.Sscanf(footer, "sweep: %d trials (%d executed, %d resumed)", &total, &executed, &resumed); err != nil ||
		total != 60 || resumed < 1 || executed < 1 {
		t.Fatalf("footer %q: want some of the 60 trials resumed and the rest executed (%v)", footer, err)
	}
}

// sweepStderr runs one command line locally and returns its stderr
// without the last line, the timing footer.
func sweepStderr(t *testing.T, args []string) string {
	t.Helper()
	var stderr bytes.Buffer
	if err := run(context.Background(), args, io.Discard, &stderr); err != nil {
		t.Fatalf("sweep(%v): %v", args, err)
	}
	return untimed(stderr.String())
}

// untimed drops a sweep's stderr footer, the one line that reads the clock.
func untimed(stderr string) string {
	body := strings.TrimSuffix(stderr, "\n")
	return body[:strings.LastIndex(body, "\n")+1]
}

// TestSweepDetailGraphLine: -detail opens each cell with the graph line,
// exact diameter and maximum degree included, and the regime; without
// it stderr holds the summary lines only.
func TestSweepDetailGraphLine(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-graph", "grid", "-sizes", "64", "-kmode", "const:32", "-trials", "1"},
			"graph=grid-8x8 n=64 m=112 D=14 Δ=4 | protocol=uniform-ag model=synchronous k=32 q=2 action=EXCHANGE\n"},
		{[]string{"-graph", "complete", "-sizes", "16", "-kmode", "const:8", "-trials", "2", "-seed", "4", "-action", "push",
			"-adversary", "byzantine:frac=0.1,mode=replay", "-classes", "tiered:frac=0.5", "-generations", "4"},
			"graph=complete-16 n=16 m=120 D=1 Δ=15 | protocol=uniform-ag model=synchronous k=8 q=2 action=PUSH" +
				" adversary=byzantine:frac=0.1,mode=replay classes=tiered:frac=0.5,boost=2 generations=4\n"},
		{[]string{"-graph", "torus", "-sizes", "16", "-trials", "1", "-seed", "4", "-model", "async", "-q", "16",
			"-dynamics", "churn:rate=0.1", "-protocol", "uncoded"},
			"graph=torus-4x4 n=16 m=32 D=4 Δ=4 | protocol=uncoded model=asynchronous k=8 q=16 action=EXCHANGE" +
				" dynamics=churn:rate=0.1,period=16\n"},
	} {
		lean := sweepStderr(t, append([]string{"-out", os.DevNull}, c.args...))
		if !strings.HasPrefix(lean, "n=") || strings.Count(lean, "\n") != 1 {
			t.Errorf("sweep %v without -detail printed more than its summary line:\n%s", c.args, lean)
		}
		got := sweepStderr(t, append([]string{"-out", os.DevNull, "-detail"}, c.args...))
		if !strings.HasPrefix(got, c.want) {
			t.Errorf("sweep %v -detail:\n%swant prefix:\n%s", c.args, got, c.want)
		}
		if !strings.HasSuffix(got, lean) || !strings.Contains(got, "Theorem 1 reference (k+log n+D)·Δ = ") {
			t.Errorf("sweep %v -detail: no bound line, or the summary moved:\n%s", c.args, got)
		}
	}
}

// TestSweepDetailParallelIdentical: the -detail report, like the CSV, is
// byte-identical for any worker count, on static and dynamic topologies.
func TestSweepDetailParallelIdentical(t *testing.T) {
	for _, base := range [][]string{
		{"-graph", "barbell", "-sizes", "12", "-protocol", "tag", "-trials", "4", "-seed", "9"},
		{"-graph", "torus", "-sizes", "16", "-protocol", "ag", "-trials", "4", "-seed", "9", "-dynamics", "churn:rate=0.2,period=8"},
	} {
		args := append([]string{"-detail", "-out", os.DevNull}, base...)
		want := sweepStderr(t, append([]string{"-parallel", "1"}, args...))
		if got := sweepStderr(t, append([]string{"-parallel", "4"}, args...)); got != want {
			t.Errorf("%v -parallel 4 detail differs:\ngot:\n%swant:\n%s", base, got, want)
		}
		if strings.Count(want, "    node completion: ") != 4 {
			t.Errorf("%v: want four completion lines:\n%s", base, want)
		}
	}
}

// TestSweepDetailAsyncTAGReportsTreeRound: t(S) is there in the
// asynchronous model too (Theorem 4 is stated for both).
func TestSweepDetailAsyncTAGReportsTreeRound(t *testing.T) {
	args := []string{"-graph", "barbell", "-sizes", "12", "-protocol", "tag", "-model", "async", "-trials", "1", "-detail", "-out", os.DevNull}
	if got := sweepStderr(t, args); !strings.Contains(got, "    spanning tree complete at round ") {
		t.Errorf("sweep %v printed no tree round:\n%s", args, got)
	}
}

// ckptNodeRounds returns the node_done_rounds of every trial line of a
// checkpoint file, by work-list index (lines land in completion order).
func ckptNodeRounds(t *testing.T, path string) map[int][]int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	out := map[int][]int{}
	for _, line := range lines[1:] { // the first line is the header
		var e struct {
			I int `json:"i"`
			O struct {
				NodeDoneRounds []int `json:"node_done_rounds"`
			} `json:"o"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("checkpoint line %q: %v", line, err)
		}
		out[e.I] = e.O.NodeDoneRounds
	}
	return out
}

// TestSweepDetailCheckpointHoldsNodeRounds: under -detail every trial
// line of the checkpoint carries one completion round per node; without
// it, none.
func TestSweepDetailCheckpointHoldsNodeRounds(t *testing.T) {
	dir := t.TempDir()
	for _, detail := range []bool{true, false} {
		ckpt := filepath.Join(dir, fmt.Sprintf("detail-%t.ckpt", detail))
		args := []string{"-graph", "ring", "-sizes", "8,12", "-trials", "2", "-checkpoint", ckpt, "-out", os.DevNull}
		if detail {
			args = append(args, "-detail")
		}
		if err := sweep(args, io.Discard); err != nil {
			t.Fatal(err)
		}
		rounds := ckptNodeRounds(t, ckpt)
		if len(rounds) != 4 {
			t.Fatalf("checkpoint holds %d trials, want 4", len(rounds))
		}
		for i := range 4 {
			r, want := rounds[i], 0
			if detail {
				want = []int{8, 8, 12, 12}[i]
			}
			if len(r) != want {
				t.Errorf("-detail=%t: trial line %d holds %d node rounds, want %d", detail, i, len(r), want)
			}
		}
	}
}

// TestSweepDetailResumedLeanTrial: a trial resumed from a checkpoint
// written without -detail has no completion rounds and prints no
// completion line; the trials run afresh print theirs. Lean stays out
// of the fingerprint, so the resume is accepted.
func TestSweepDetailResumedLeanTrial(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "lean.ckpt")
	// One worker, so the checkpoint's lines are in trial order.
	args := []string{"-graph", "ring", "-sizes", "8", "-trials", "2", "-seed", "5", "-parallel", "1", "-checkpoint", ckpt, "-out", os.DevNull}
	if err := sweep(args, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if err := os.WriteFile(ckpt, []byte(lines[0]+lines[1]), 0o644); err != nil { // header + trial 0
		t.Fatal(err)
	}
	got := sweepStderr(t, append(args, "-resume", "-detail"))
	trial0, trial1, ok := strings.Cut(got, "  trial 1: ")
	if !ok || strings.Contains(trial0, "node completion") || !strings.Contains(trial1, "    node completion: n=8 ") {
		t.Errorf("want a completion line for trial 1 only:\n%s", got)
	}
}

// TestSweepDetailServed: a served sweep with -detail hands workers a spec
// that keeps the completion rounds, and the serving process prints the
// same detail as the local pool.
func TestSweepDetailServed(t *testing.T) {
	words := []string{"-graph", "barbell", "-sizes", "12,16", "-protocol", "tag", "-trials", "2", "-seed", "3", "-detail", "-out", os.DevNull}
	want := sweepStderr(t, append([]string{"-parallel", "1"}, words...))
	url, stderr, result := serving(t, context.Background(), words, nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := join(ctx, url, 2); err != nil {
		t.Fatal(err)
	}
	if err := <-result; err != nil {
		t.Fatalf("served sweep: %v", err)
	}
	if got := untimed(stderr.String()); got != want {
		t.Errorf("served detail differs from the local pool's:\ngot:\n%swant:\n%s", got, want)
	}
}

// TestSweepDetailEndToEnd runs one -detail cell for each protocol, time
// model, field and dynamics a single-configuration report is asked for,
// and checks each prints its graph line, its trial and the bound.
func TestSweepDetailEndToEnd(t *testing.T) {
	for _, c := range []struct {
		args  []string
		graph string
	}{
		{[]string{"-graph", "line", "-sizes", "10", "-kmode", "const:5", "-protocol", "ag"}, "line-10"},
		{[]string{"-graph", "barbell", "-sizes", "12", "-protocol", "tag"}, "barbell-12"},
		{[]string{"-graph", "complete", "-sizes", "8", "-protocol", "uncoded", "-model", "async"}, "complete-8"},
		{[]string{"-graph", "grid", "-sizes", "9", "-protocol", "tag-is", "-q", "256"}, "grid-3x3"},
		{[]string{"-graph", "torus", "-sizes", "16", "-protocol", "ag", "-dynamics", "edge:rate=0.2"}, "torus-4x4"},
		{[]string{"-graph", "ring", "-sizes", "12", "-protocol", "uncoded", "-dynamics", "churn:rate=0.1,period=8", "-model", "async"}, "ring-12"},
	} {
		args := append([]string{"-trials", "1", "-detail", "-out", os.DevNull}, c.args...)
		got := sweepStderr(t, args)
		if !strings.HasPrefix(got, "graph="+c.graph+" ") || strings.Count(got, "  trial 0: ") != 1 ||
			!strings.Contains(got, "    node completion: ") || !strings.Contains(got, "Theorem 1 reference (k+log n+D)·Δ = ") {
			t.Errorf("sweep %v -detail report incomplete:\n%s", c.args, got)
		}
	}
}

// TestSweepDetailDynamicsRejected: bad dynamics words, and a tree
// protocol on a changing graph, fail fast under -detail too, before any
// CSV or report line is written.
func TestSweepDetailDynamicsRejected(t *testing.T) {
	for _, a := range [][]string{
		{"-dynamics", "bogus"},
		{"-dynamics", "edge:rate=2"},
		{"-graph", "ring", "-sizes", "12", "-protocol", "tag", "-trials", "1", "-dynamics", "edge:rate=0.2"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(context.Background(), append([]string{"-detail"}, a...), &stdout, &stderr); err == nil {
			t.Errorf("sweep -detail %v accepted", a)
		}
		if stdout.Len() != 0 || strings.Contains(stderr.String(), "graph=") {
			t.Errorf("sweep -detail %v wrote before refusing:\nstdout: %q\nstderr: %q", a, stdout.String(), stderr.String())
		}
	}
}

// TestSweepDetailRejectsBadFlags: -detail changes what is reported, not
// what is accepted: every malformed word is refused with it too.
func TestSweepDetailRejectsBadFlags(t *testing.T) {
	detailed := func(args []string, stdout io.Writer) error {
		return sweep(append([]string{"-detail"}, args...), stdout)
	}
	for _, a := range [][]string{
		{"-graph", "bogus"},
		{"-protocol", "bogus"},
		{"-model", "bogus"},
		{"-action", "sideways"},
	} {
		if err := detailed(a, io.Discard); err == nil {
			t.Errorf("sweep -detail %v accepted", a)
		}
	}
	rejectsBadSpecWords(t, detailed)
}

// TestSweepDetailPropagatesWriteErrors: with -detail, a failing stdout
// still makes run return the error, and the report that follows the CSV
// is not printed.
func TestSweepDetailPropagatesWriteErrors(t *testing.T) {
	var stderr bytes.Buffer
	err := run(context.Background(), []string{"-graph", "line", "-sizes", "8", "-trials", "1", "-detail"}, failWriter{}, &stderr)
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("write error not propagated: %v", err)
	}
	if strings.Contains(stderr.String(), "graph=") {
		t.Errorf("detail printed after a failed CSV write:\n%s", stderr.String())
	}
}

// TestSweepDetailProfileFlagsSmoke: -cpuprofile/-memprofile/-trace write
// non-empty files under -detail without disturbing its report.
func TestSweepDetailProfileFlagsSmoke(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	trc := filepath.Join(dir, "trace.out")
	want := sweepStderr(t, []string{"-graph", "grid", "-sizes", "9", "-trials", "1", "-seed", "1", "-detail", "-out", os.DevNull})
	got := sweepStderr(t, []string{"-graph", "grid", "-sizes", "9", "-trials", "1", "-seed", "1", "-detail", "-out", os.DevNull,
		"-cpuprofile", cpu, "-memprofile", mem, "-trace", trc})
	if got != want || !strings.Contains(got, "  trial 0: ") {
		t.Fatalf("profiling disturbed the report:\ngot:\n%swant:\n%s", got, want)
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
