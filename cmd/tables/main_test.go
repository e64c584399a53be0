package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestTablesSingleExperiment(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-quick", "-only", "A4", "-outdir", dir}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "A4.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "identical round counts") {
		t.Fatalf("A4 output unexpected:\n%s", data)
	}
}

// TestTablesParallelIdentical pins the determinism contract: the
// regenerated artifact bytes are identical for any worker count.
func TestTablesParallelIdentical(t *testing.T) {
	dir := t.TempDir()
	var want string
	for _, workers := range []int{1, 4} {
		sub := filepath.Join(dir, strconv.Itoa(workers))
		if err := run([]string{"-quick", "-only", "E10", "-outdir", sub,
			"-parallel", strconv.Itoa(workers)}, os.Stdout); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(sub, "E10.txt"))
		if err != nil {
			t.Fatal(err)
		}
		if want == "" {
			want = string(data)
			continue
		}
		if string(data) != want {
			t.Errorf("-parallel %d output differs:\ngot:\n%swant:\n%s", workers, data, want)
		}
	}
}

func TestTablesRejectsUnknownID(t *testing.T) {
	if err := run([]string{"-only", "E99"}, os.Stdout); err == nil {
		t.Error("unknown experiment ID accepted")
	}
}

// TestTablesRejectsNegativeRunFlags: a negative -trials used to run each
// experiment's default count, and a negative -parallel all cores; both
// are refused before the first experiment prints a line.
func TestTablesRejectsNegativeRunFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"-quick", "-only", "A4", "-trials", "-3"}, "-trials -3"},
		{[]string{"-quick", "-only", "A4", "-parallel", "-2"}, "-parallel -2"},
	} {
		var buf bytes.Buffer
		if err := run(c.args, &buf); err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("tables %v: %v, want a refusal naming %s", c.args, err, c.flag)
		}
		if buf.Len() != 0 {
			t.Errorf("tables %v printed before refusing:\n%s", c.args, buf.String())
		}
	}
}

// failWriter rejects every write.
type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("disk full") }

// TestTablesPropagatesWriteErrors pins the fail-fast treatment cmd/sweep
// got in PR 1: tables now also exits non-zero when stdout fails.
func TestTablesPropagatesWriteErrors(t *testing.T) {
	err := run([]string{"-quick", "-only", "A4"}, failWriter{})
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("write error not propagated: %v", err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-only", "A4"}, &buf); err != nil {
		t.Fatalf("healthy writer errored: %v", err)
	}
}
