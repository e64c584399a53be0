package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"algossip/internal/harness/harnesstest"
)

func TestGossipsimEndToEnd(t *testing.T) {
	args := [][]string{
		{"-graph", "line", "-n", "10", "-k", "5", "-protocol", "ag", "-trials", "1"},
		{"-graph", "barbell", "-n", "12", "-protocol", "tag", "-trials", "1", "-detail"},
		{"-graph", "complete", "-n", "8", "-protocol", "uncoded", "-trials", "1", "-model", "async"},
		{"-graph", "grid", "-n", "9", "-protocol", "tag-is", "-trials", "1", "-q", "256"},
		{"-graph", "torus", "-n", "16", "-protocol", "ag", "-trials", "1", "-dynamics", "edge:rate=0.2"},
		{"-graph", "ring", "-n", "12", "-protocol", "uncoded", "-trials", "1", "-dynamics", "churn:rate=0.1,period=8", "-model", "async"},
	}
	for _, a := range args {
		if err := run(a, os.Stdout); err != nil {
			t.Errorf("run(%v): %v", a, err)
		}
	}
}

// TestGossipsimHeaderAndRounds pins report lines recorded from the last
// commit whose gossipsim parsed its experiment words by hand: the shared
// binding has to print the same header and replay the same trials.
func TestGossipsimHeaderAndRounds(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-trials", "1"},
			"graph=grid-8x8 n=64 m=112 D=14 Δ=4 | protocol=uniform-ag model=synchronous k=32 q=2 action=EXCHANGE\n"},
		{[]string{"-graph", "complete", "-n", "16", "-k", "8", "-trials", "2", "-seed", "4", "-action", "push",
			"-adversary", "byzantine:frac=0.1,mode=replay", "-classes", "tiered:frac=0.5", "-generations", "4"},
			"graph=complete-16 n=16 m=120 D=1 Δ=15 | protocol=uniform-ag model=synchronous k=8 q=2 action=PUSH" +
				" adversary=byzantine:frac=0.1,mode=replay classes=tiered:frac=0.5,boost=2 generations=4\n" +
				"  trial 0: 23 rounds\n  trial 1: 23 rounds\n"},
		{[]string{"-graph", "torus", "-n", "16", "-trials", "1", "-seed", "4", "-model", "async", "-q", "16",
			"-dynamics", "churn:rate=0.1", "-protocol", "uncoded"},
			"graph=torus-4x4 n=16 m=32 D=4 Δ=4 | protocol=uncoded model=asynchronous k=8 q=16 action=EXCHANGE" +
				" dynamics=churn:rate=0.1,period=16\n  trial 0: 61 rounds\n"},
	} {
		var buf bytes.Buffer
		if err := run(c.args, &buf); err != nil {
			t.Fatalf("run(%v): %v", c.args, err)
		}
		if !strings.HasPrefix(buf.String(), c.want) {
			t.Errorf("run(%v) report changed:\ngot:\n%swant prefix:\n%s", c.args, buf.String(), c.want)
		}
	}
}

// TestGossipsimAsyncTAGReportsTreeRound: t(S) is there in the asynchronous
// model too (Theorem 4 is stated for both).
func TestGossipsimAsyncTAGReportsTreeRound(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-graph", "barbell", "-n", "12", "-protocol", "tag", "-model", "async", "-trials", "1", "-detail"}
	if err := run(args, &buf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	if !strings.Contains(buf.String(), "    spanning tree complete at round ") {
		t.Errorf("run(%v) printed no tree round:\n%s", args, buf.String())
	}
}

// TestGossipsimDynamicsRejected: bad dynamics flags and unsupported
// protocol combinations fail fast.
func TestGossipsimDynamicsRejected(t *testing.T) {
	for _, a := range [][]string{
		{"-dynamics", "bogus"},
		{"-dynamics", "edge:rate=2"},
		{"-graph", "ring", "-n", "12", "-protocol", "tag", "-trials", "1", "-dynamics", "edge:rate=0.2"},
	} {
		if err := run(a, os.Stdout); err == nil {
			t.Errorf("run(%v) accepted", a)
		}
	}
}

// TestGossipsimParallelIdentical pins the determinism contract at the CLI
// level: the full printed report is byte-identical for any worker count,
// for static and dynamic topologies alike.
func TestGossipsimParallelIdentical(t *testing.T) {
	cases := [][]string{
		{"-graph", "barbell", "-n", "12", "-protocol", "tag",
			"-trials", "4", "-seed", "9", "-detail"},
		{"-graph", "torus", "-n", "16", "-protocol", "ag",
			"-trials", "4", "-seed", "9", "-detail", "-dynamics", "churn:rate=0.2,period=8"},
	}
	for _, base := range cases {
		var want string
		for _, workers := range []int{1, 4, 16} {
			var buf bytes.Buffer
			args := append(append([]string{}, base...), "-parallel", strconv.Itoa(workers))
			if err := run(args, &buf); err != nil {
				t.Fatal(err)
			}
			if want == "" {
				want = buf.String()
				continue
			}
			if buf.String() != want {
				t.Errorf("%v -parallel %d output differs:\ngot:\n%swant:\n%s", base, workers, buf.String(), want)
			}
		}
	}
}

func TestGossipsimTraceCSV(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "trace.csv")
	if err := run([]string{
		"-graph", "ring", "-n", "8", "-k", "4", "-trials", "1", "-tracecsv", out,
	}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 9 { // header + 8 nodes
		t.Fatalf("trace CSV has %d lines, want 9:\n%s", len(lines), data)
	}
	if lines[0] != "node,round" {
		t.Fatalf("bad header %q", lines[0])
	}
}

func TestGossipsimRejectsBadFlags(t *testing.T) {
	for _, a := range [][]string{
		{"-graph", "bogus"},
		{"-protocol", "bogus"},
		{"-model", "bogus"},
		{"-action", "sideways"},
	} {
		if err := run(a, os.Stdout); err == nil {
			t.Errorf("run(%v) accepted", a)
		}
	}
	harnesstest.RejectsBadSpecWords(t, run)
}

// failWriter rejects every write.
type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("broken pipe") }

// TestGossipsimPropagatesWriteErrors pins the fail-fast treatment: a
// failing stdout makes run return the error instead of dropping output.
func TestGossipsimPropagatesWriteErrors(t *testing.T) {
	err := run([]string{"-graph", "line", "-n", "8", "-trials", "1"}, failWriter{})
	if err == nil || !strings.Contains(err.Error(), "broken pipe") {
		t.Fatalf("write error not propagated: %v", err)
	}
}

// TestProfileFlagsSmoke checks -cpuprofile/-memprofile/-trace write
// non-empty diagnostics files on clean exit without disturbing the report.
func TestProfileFlagsSmoke(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	trc := filepath.Join(dir, "trace.out")
	var buf bytes.Buffer
	args := []string{"-graph", "grid", "-n", "9", "-trials", "1", "-seed", "1",
		"-cpuprofile", cpu, "-memprofile", mem, "-trace", trc}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "stopping time:") {
		t.Fatalf("report output disturbed: %q", buf.String())
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
