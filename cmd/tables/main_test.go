package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
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

// TestTablesFlagsByMode: in both of tables' modes — running the
// experiments, and reading a store with -query (whose -cells lists it and
// takes no filter) — every flag tables registers is either used or refused
// with its name in the error, so a flag added later cannot be silently
// ignored in one of them.
func TestTablesFlagsByMode(t *testing.T) {
	dir := t.TempDir()
	storePath := filepath.Join(dir, "results.jsonl")
	// One command line per flag, and the modes that use it. -query
	// switches modes, so it is only passed in its own.
	flags := map[string]struct {
		args  []string
		modes string
	}{
		"quick":       {[]string{"-quick"}, "run"},
		"seed":        {[]string{"-seed", "3"}, "run"},
		"only":        {[]string{"-only", "A4"}, "run"},
		"trials":      {[]string{"-trials", "1"}, "run"},
		"parallel":    {[]string{"-parallel", "1"}, "run"},
		"outdir":      {[]string{"-outdir", dir}, "run"},
		"query":       {[]string{"-query", storePath}, "query cells"},
		"cells":       {[]string{"-cells"}, "query cells"},
		"spec":        {[]string{"-spec", "sweep"}, "query"},
		"graph":       {[]string{"-graph", "ring"}, "query"},
		"n":           {[]string{"-n", "16"}, "query"},
		"k":           {[]string{"-k", "8"}, "query"},
		"q":           {[]string{"-q", "2"}, "query"},
		"protocol":    {[]string{"-protocol", "uniform-ag"}, "query"},
		"dynamics":    {[]string{"-dynamics", "edge"}, "query"},
		"generations": {[]string{"-generations", "0"}, "query"},
		"rate":        {[]string{"-rate", "0"}, "query"},
		"regime":      {[]string{"-regime", ""}, "query"},
	}
	modes := map[string][]string{
		"run":   {"-quick", "-only", "A4"},
		"query": {"-query", storePath},
		"cells": {"-query", storePath, "-cells"},
	}
	fs, _ := command(io.Discard)
	fs.VisitAll(func(f *flag.Flag) {
		row, ok := flags[f.Name]
		if !ok {
			t.Errorf("-%s has no row here: say which modes use it, and refuse it in the others", f.Name)
			return
		}
		for mode, base := range modes {
			uses := strings.Contains(" "+row.modes+" ", " "+mode+" ")
			if !uses && f.Name == "query" {
				continue
			}
			args := append(slices.Clone(base), row.args...)
			err := run(args, io.Discard)
			if uses {
				if err != nil {
					t.Errorf("%s mode: tables %v: %v", mode, args, err)
				}
			} else if !refuses(err, f.Name) {
				t.Errorf("%s mode: tables %v: %v, want a refusal naming -%s", mode, args, err, f.Name)
			}
		}
	})
	// A query needs a store, and a stray word is no mode of its own.
	for _, args := range [][]string{
		{"-query", ""},
		{"query"},
		{"-quick", "E10"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("tables %v accepted", args)
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
