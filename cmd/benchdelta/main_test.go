package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: algossip/internal/gf
BenchmarkAddMulScalarGF256-8   	  500000	      2100.0 ns/op	 121.9 MB/s
BenchmarkAddMulSliceGF256-8    	 3000000	       350.5 ns/op	 730.4 MB/s
BenchmarkAddMulSliceGF2-8      	20000000	        10.2 ns/op
PASS
ok  	algossip/internal/gf	2.511s
BenchmarkDecode-8              	   10000	    105000 ns/op
`

func TestParseBench(t *testing.T) {
	got, err := ParseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d entries, want 4: %v", len(got), got)
	}
	e := got["BenchmarkAddMulSliceGF256"]
	if e.NsPerOp != 350.5 || e.MBPerS != 730.4 {
		t.Fatalf("bad entry: %+v", e)
	}
	if got["BenchmarkDecode"].NsPerOp != 105000 {
		t.Fatalf("bad decode entry: %+v", got["BenchmarkDecode"])
	}
}

func TestParseBenchKeepsBestRun(t *testing.T) {
	in := "BenchmarkX-8  10  200.0 ns/op\nBenchmarkX-8  10  150.0 ns/op\nBenchmarkX-8  10  180.0 ns/op\n"
	got, err := ParseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkX"].NsPerOp != 150.0 {
		t.Fatalf("want best run 150.0, got %+v", got["BenchmarkX"])
	}
}

// TestCompareVerdicts: ns/op is printed, never judged — a slowdown of
// any size is "ok" (the timing verdict is bench -compare's, on paired
// same-runner runs); new and vanished benchmarks are still called out.
func TestCompareVerdicts(t *testing.T) {
	base := map[string]Entry{
		"BenchmarkStable":   {NsPerOp: 100},
		"BenchmarkSlower":   {NsPerOp: 100},
		"BenchmarkVanished": {NsPerOp: 100},
	}
	fresh := map[string]Entry{
		"BenchmarkStable": {NsPerOp: 110},
		"BenchmarkSlower": {NsPerOp: 1000, BytesPerOp: fptr(4096)},
		"BenchmarkNew":    {NsPerOp: 42}, // no baseline
	}
	report, regressions, missing := Compare(base, fresh)
	if regressions != 0 {
		t.Fatalf("ns/op alone regressed the gate (%d):\n%s", regressions, report)
	}
	if missing != 1 {
		t.Fatalf("want 1 missing, got %d:\n%s", missing, report)
	}
	for _, want := range []string{"+900.0%", "4096", "new (no baseline)", "MISSING from this run"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

// TestMissingBenchmarksFailGate: a bench run that crashed partway (so
// baseline entries have no fresh numbers) must fail the gate, not pass
// with a shrug.
func TestMissingBenchmarksFailGate(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.json")
	if err := run([]string{"-baseline", baseline, "-update"},
		strings.NewReader(sampleBench), &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	// Fresh run lost the rlnc half of the suite.
	truncated := strings.Split(sampleBench, "BenchmarkDecode")[0]
	var sb strings.Builder
	err := run([]string{"-baseline", baseline}, strings.NewReader(truncated), &sb)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("partial bench run passed the gate: %v\n%s", err, sb.String())
	}
}

func TestEndToEndGate(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.json")
	outFile := filepath.Join(dir, "new.json")

	// 1. -update creates the baseline from a run.
	var sb strings.Builder
	if err := run([]string{"-baseline", baseline, "-update"},
		strings.NewReader(sampleBench), &sb); err != nil {
		t.Fatal(err)
	}

	// 2. An identical run passes the gate and writes the artifact.
	sb.Reset()
	if err := run([]string{"-baseline", baseline, "-out", outFile},
		strings.NewReader(sampleBench), &sb); err != nil {
		t.Fatalf("identical run failed gate: %v\n%s", err, sb.String())
	}
	if _, err := os.Stat(outFile); err != nil {
		t.Fatalf("artifact not written: %v", err)
	}

	// 3. A slowdown alone passes: ns/op is reported, not judged.
	slow := strings.ReplaceAll(sampleBench, "350.5 ns/op", "900.0 ns/op")
	sb.Reset()
	if err := run([]string{"-baseline", baseline}, strings.NewReader(slow), &sb); err != nil {
		t.Fatalf("ns/op judged: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "900.0") {
		t.Fatalf("report does not carry the fresh ns/op:\n%s", sb.String())
	}

	// 4. The ns/op tolerance knob is gone with the verdict it tuned.
	if err := run([]string{"-baseline", baseline, "-tolerance", "2.0"},
		strings.NewReader(slow), &strings.Builder{}); err == nil {
		t.Fatal("-tolerance still accepted")
	}

	// 5. One more allocation per op fails the gate.
	mem := "BenchmarkHot-8  10  100.0 ns/op  64 B/op  2 allocs/op\n"
	if err := run([]string{"-baseline", baseline, "-update"}, strings.NewReader(mem), &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	err := run([]string{"-baseline", baseline}, strings.NewReader(strings.Replace(mem, "2 allocs/op", "3 allocs/op", 1)), &sb)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("alloc regression not caught: %v\n%s", err, sb.String())
	}
}

func TestMissingBaselineErrors(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-baseline", filepath.Join(t.TempDir(), "none.json")},
		strings.NewReader(sampleBench), &sb)
	if err == nil || !strings.Contains(err.Error(), "-update") {
		t.Fatalf("missing baseline not explained: %v", err)
	}
}

func TestEmptyInputErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, strings.NewReader("no benches here\n"), &sb); err == nil {
		t.Fatal("empty input accepted")
	}
}

func fptr(v float64) *float64 { return &v }

// TestParseBenchmem covers -benchmem lines, including custom metrics
// sitting between ns/op and the B/op pair, and zero allocs/op.
func TestParseBenchmem(t *testing.T) {
	in := strings.NewReader(`
BenchmarkSimUniformAG/complete/n=256/gf=2-8   1   30731284 ns/op   78.60 rounds   1792800 B/op   2596 allocs/op
BenchmarkSteadyState-8   1000000   105.0 ns/op   0 B/op   0 allocs/op
BenchmarkKernelOnly-8   123456   987.6 ns/op   259.3 MB/s
`)
	got, err := ParseBench(in)
	if err != nil {
		t.Fatal(err)
	}
	sim := got["BenchmarkSimUniformAG/complete/n=256/gf=2"]
	if sim.AllocsPerOp == nil || *sim.AllocsPerOp != 2596 {
		t.Fatalf("sim allocs = %v, want 2596", sim.AllocsPerOp)
	}
	if sim.BytesPerOp == nil || *sim.BytesPerOp != 1792800 {
		t.Fatalf("sim B/op = %v, want 1792800", sim.BytesPerOp)
	}
	steady := got["BenchmarkSteadyState"]
	if steady.AllocsPerOp == nil || *steady.AllocsPerOp != 0 {
		t.Fatalf("zero allocs must parse as present-and-zero, got %v", steady.AllocsPerOp)
	}
	if kern := got["BenchmarkKernelOnly"]; kern.AllocsPerOp != nil {
		t.Fatalf("no-benchmem line must leave allocs nil, got %v", *kern.AllocsPerOp)
	}
}

// TestParseBenchmemKeepsMin: with -count > 1, the merged entry keeps the
// minimum allocs/op across runs.
func TestParseBenchmemKeepsMin(t *testing.T) {
	in := strings.NewReader(`
BenchmarkX-8   1   200 ns/op   10 B/op   3 allocs/op
BenchmarkX-8   1   100 ns/op   12 B/op   2 allocs/op
BenchmarkX-8   1   150 ns/op   11 B/op   4 allocs/op
`)
	got, err := ParseBench(in)
	if err != nil {
		t.Fatal(err)
	}
	e := got["BenchmarkX"]
	if e.NsPerOp != 100 || *e.AllocsPerOp != 2 || *e.BytesPerOp != 10 {
		t.Fatalf("merged entry = %+v (allocs %v bytes %v), want ns=100 allocs=2 bytes=10",
			e, *e.AllocsPerOp, *e.BytesPerOp)
	}
}

// TestCompareAllocRegression: any allocs/op increase fails the gate
// whatever ns/op did; absent alloc data on either side never gates.
func TestCompareAllocRegression(t *testing.T) {
	base := map[string]Entry{
		"BenchmarkA": {NsPerOp: 100, AllocsPerOp: fptr(5)},
		"BenchmarkB": {NsPerOp: 100, AllocsPerOp: fptr(5)},
		"BenchmarkC": {NsPerOp: 100}, // baseline without -benchmem data
	}
	fresh := map[string]Entry{
		"BenchmarkA": {NsPerOp: 101, AllocsPerOp: fptr(6)}, // ns fine, allocs up
		"BenchmarkB": {NsPerOp: 99, AllocsPerOp: fptr(5)},  // unchanged
		"BenchmarkC": {NsPerOp: 100, AllocsPerOp: fptr(999)},
	}
	report, regressions, missing := Compare(base, fresh)
	if regressions != 1 {
		t.Fatalf("regressions = %d, want 1 (alloc-only regression)\n%s", regressions, report)
	}
	if missing != 0 {
		t.Fatalf("missing = %d, want 0", missing)
	}
	if !strings.Contains(report, "ALLOC REGRESSION (5 -> 6 allocs/op)") {
		t.Fatalf("report lacks alloc verdict:\n%s", report)
	}
}

// TestAllocsRoundTripJSON: zero allocs/op survives the baseline JSON
// round trip (omitempty must not erase a measured zero).
func TestAllocsRoundTripJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.json")
	if err := writeBaseline(path, map[string]Entry{
		"BenchmarkZ": {NsPerOp: 50, AllocsPerOp: fptr(0)},
	}); err != nil {
		t.Fatal(err)
	}
	b, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	e := b.Benchmarks["BenchmarkZ"]
	if e.AllocsPerOp == nil || *e.AllocsPerOp != 0 {
		t.Fatalf("zero allocs lost in round trip: %v", e.AllocsPerOp)
	}
}

// TestHistoryAppend: -history appends one JSONL record per benchmark per
// run (commit, name, ns/op, B/op, allocs/op), so repeated runs build the
// machine-readable perf trajectory.
func TestHistoryAppend(t *testing.T) {
	dir := t.TempDir()
	hist := filepath.Join(dir, "traj.jsonl")
	baseline := filepath.Join(dir, "base.json")
	in := "BenchmarkA-8  10  200.0 ns/op  128 B/op  3 allocs/op\nBenchmarkB-8  10  90.0 ns/op\n"
	// First run creates the baseline and the history file.
	if err := run([]string{"-baseline", baseline, "-update", "-history", hist, "-commit", "c0ffee1"},
		strings.NewReader(in), &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	// Second run (compare mode) appends.
	if err := run([]string{"-baseline", baseline, "-history", hist, "-commit", "c0ffee2"},
		strings.NewReader(in), &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(hist)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 4 {
		t.Fatalf("history has %d lines, want 4:\n%s", len(lines), data)
	}
	// Sorted by name within a run, commit stamped per run.
	if !strings.Contains(lines[0], `"commit":"c0ffee1"`) || !strings.Contains(lines[0], `"bench":"BenchmarkA"`) {
		t.Fatalf("line 0 = %s", lines[0])
	}
	if !strings.Contains(lines[0], `"ns_per_op":200`) || !strings.Contains(lines[0], `"b_per_op":128`) || !strings.Contains(lines[0], `"allocs_per_op":3`) {
		t.Fatalf("line 0 missing fields: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"bench":"BenchmarkB"`) || strings.Contains(lines[1], "b_per_op") {
		t.Fatalf("line 1 = %s", lines[1])
	}
	if !strings.Contains(lines[2], `"commit":"c0ffee2"`) {
		t.Fatalf("line 2 = %s", lines[2])
	}
}
