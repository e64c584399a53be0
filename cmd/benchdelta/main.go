// Command benchdelta is CI's gate on what a benchmark run measures
// deterministically: it parses `go test -bench` output and fails when a
// benchmark's allocs/op exceeds the checked-in baseline at all
// (allocation counts are a pure function of a fixed-seed workload, so
// there is no noise to tolerate) or when a baseline benchmark is missing
// from the run. ns/op and B/op are printed and recorded, never judged:
// the baselines hold whichever machine last refreshed them, and the
// timing verdict is bench/'s paired `-compare` of base vs head on one
// runner. Two baselines are gated in CI: the coding kernels
// (BENCH_BASELINE.json, ./internal/core ./internal/gf ./internal/linalg
// ./internal/rlnc ./internal/wire) and the whole-simulation macro suite
// (BENCH_SIM.json, root BenchmarkSim*).
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -benchtime 200ms \
//	    ./internal/core ./internal/gf ./internal/linalg ./internal/rlnc ./internal/wire \
//	    | go run ./cmd/benchdelta -baseline BENCH_BASELINE.json -out bench_new.json
//
//	go test -run '^$' -bench '^BenchmarkSim' -benchmem -benchtime 1x -count 3 . \
//	    | go run ./cmd/benchdelta -baseline BENCH_SIM.json -out bench_sim_new.json
//
//	# refresh a baseline after an intentional change:
//	... | go run ./cmd/benchdelta -baseline BENCH_SIM.json -update
//
//	# additionally append this run to the machine-readable perf trajectory
//	# (one JSON line per benchmark: commit, name, ns/op, B/op, allocs/op):
//	... | go run ./cmd/benchdelta -baseline BENCH_SIM.json -history BENCH_TRAJECTORY.jsonl
//
// New benchmarks (absent from the baseline) are reported but never fail
// the gate; the -out file always carries the fresh numbers so CI can
// upload them as an artifact.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"algossip/internal/gf"
)

// Baseline is the checked-in benchmark reference.
type Baseline struct {
	// Note documents how to regenerate the file.
	Note string `json:"note,omitempty"`
	// Benchmarks maps normalized benchmark name to its reference numbers.
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// Entry is one benchmark measurement. AllocsPerOp and BytesPerOp are
// pointers so "not measured" (no -benchmem) is distinguishable from a
// genuine zero — zero allocations is exactly what the hot-path gate
// pins.
type Entry struct {
	NsPerOp     float64  `json:"ns_per_op"`
	MBPerS      float64  `json:"mb_per_s,omitempty"`
	BytesPerOp  *float64 `json:"b_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdelta:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchdelta", flag.ContinueOnError)
	var (
		baselinePath = fs.String("baseline", "BENCH_BASELINE.json", "checked-in baseline JSON")
		inPath       = fs.String("in", "", "bench output file (default stdin)")
		outPath      = fs.String("out", "", "write the fresh numbers as JSON to this path")
		update       = fs.Bool("update", false, "rewrite the baseline with the fresh numbers instead of comparing")
		historyPath  = fs.String("history", "", "append one JSONL record per benchmark (commit, name, ns/op, B/op, allocs/op, gf tier) to this file")
		commit       = fs.String("commit", "", "commit id recorded in -history lines (default: git rev-parse --short HEAD)")
		tier         = fs.String("tier", gf.TierInfo(), "gf kernel tier string recorded in -history lines (default: this process's tier + CPU features; override when the bench log came from another machine)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	in := stdin
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	fresh, err := ParseBench(in)
	if err != nil {
		return err
	}
	if len(fresh) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	if *outPath != "" {
		if err := writeBaseline(*outPath, fresh); err != nil {
			return err
		}
	}
	if *historyPath != "" {
		if err := appendHistory(*historyPath, resolveCommit(*commit), *tier, fresh); err != nil {
			return err
		}
	}
	if *update {
		if err := writeBaseline(*baselinePath, fresh); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "baseline %s updated with %d benchmarks\n", *baselinePath, len(fresh))
		return nil
	}

	base, err := readBaseline(*baselinePath)
	if err != nil {
		return err
	}
	report, regressions, missing := Compare(base.Benchmarks, fresh)
	fmt.Fprint(stdout, report)
	if regressions > 0 {
		return fmt.Errorf("%d benchmark(s) regressed in allocs/op", regressions)
	}
	if missing > 0 {
		// A baseline entry with no fresh measurement means either the
		// bench run crashed partway or a benchmark was renamed/deleted;
		// both must be explicit (-update), never silent.
		return fmt.Errorf("%d baseline benchmark(s) missing from this run (crashed bench or rename? refresh with -update)", missing)
	}
	return nil
}

// benchLine matches `go test -bench` result lines, e.g.
//
//	BenchmarkAddMulSliceGF256-8   123456   987.6 ns/op   259.3 MB/s
//	BenchmarkSimUniformAG/complete/n=256/gf=2-8   1   30731284 ns/op   78.60 rounds   1792800 B/op   2596 allocs/op
//
// Custom metrics (like "rounds") may sit between ns/op and the
// -benchmem pair, so the B/op capture is anchored lazily.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.eE+]+) ns/op(?:\s+([0-9.eE+]+) MB/s)?(?:.*?\s([0-9.eE+]+) B/op\s+([0-9.eE+]+) allocs/op)?`)

// ParseBench extracts benchmark entries from `go test -bench` output,
// normalizing names by stripping the GOMAXPROCS suffix. A benchmark that
// appears multiple times (-count > 1) keeps its best (lowest) ns/op and
// allocs/op across runs, which damps scheduler and GC-timing noise.
func ParseBench(r io.Reader) (map[string]Entry, error) {
	out := map[string]Entry{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		e := Entry{NsPerOp: ns}
		if m[3] != "" {
			e.MBPerS, _ = strconv.ParseFloat(m[3], 64)
		}
		if m[4] != "" && m[5] != "" {
			if b, err := strconv.ParseFloat(m[4], 64); err == nil {
				e.BytesPerOp = &b
			}
			if a, err := strconv.ParseFloat(m[5], 64); err == nil {
				e.AllocsPerOp = &a
			}
		}
		old, ok := out[m[1]]
		if !ok {
			out[m[1]] = e
			continue
		}
		merged := old
		if e.NsPerOp < old.NsPerOp {
			merged.NsPerOp, merged.MBPerS = e.NsPerOp, e.MBPerS
		}
		merged.BytesPerOp = minPtr(old.BytesPerOp, e.BytesPerOp)
		merged.AllocsPerOp = minPtr(old.AllocsPerOp, e.AllocsPerOp)
		out[m[1]] = merged
	}
	return out, sc.Err()
}

// minPtr merges two optional measurements, keeping the smaller when both
// are present.
func minPtr(a, b *float64) *float64 {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case *b < *a:
		return b
	default:
		return a
	}
}

// Compare renders a benchstat-style delta table and counts regressions
// — fresh entries whose allocs/op exceeds the baseline at all (allocation
// counts are deterministic; any increase is a leak into the hot path) —
// and missing entries (baseline benchmarks absent from the fresh run: a
// crashed bench binary or a rename). The ns/op delta and B/op are shown
// for the reader, not judged.
func Compare(base, fresh map[string]Entry) (string, int, int) {
	names := make([]string, 0, len(fresh))
	for name := range fresh {
		names = append(names, name)
	}
	sort.Strings(names)

	var sb strings.Builder
	regressions := 0
	fmt.Fprintf(&sb, "%-52s %12s %12s %8s %12s %12s  %s\n", "benchmark", "old ns/op", "new ns/op", "delta", "B/op", "allocs/op", "verdict")
	for _, name := range names {
		f := fresh[name]
		b, ok := base[name]
		if !ok {
			fmt.Fprintf(&sb, "%-52s %12s %12.1f %8s %12s %12s  new (no baseline)\n", name, "-", f.NsPerOp, "-", optCell(f.BytesPerOp), optCell(f.AllocsPerOp))
			continue
		}
		verdict := "ok"
		if b.AllocsPerOp != nil && f.AllocsPerOp != nil && *f.AllocsPerOp > *b.AllocsPerOp {
			verdict = fmt.Sprintf("ALLOC REGRESSION (%.0f -> %.0f allocs/op)", *b.AllocsPerOp, *f.AllocsPerOp)
			regressions++
		}
		fmt.Fprintf(&sb, "%-52s %12.1f %12.1f %+7.1f%% %12s %12s  %s\n",
			name, b.NsPerOp, f.NsPerOp, (f.NsPerOp-b.NsPerOp)/b.NsPerOp*100, optCell(f.BytesPerOp), optCell(f.AllocsPerOp), verdict)
	}
	missing := 0
	missingNames := make([]string, 0)
	for name := range base {
		if _, ok := fresh[name]; !ok {
			missingNames = append(missingNames, name)
			missing++
		}
	}
	sort.Strings(missingNames)
	for _, name := range missingNames {
		fmt.Fprintf(&sb, "%-52s MISSING from this run (crashed bench or rename?)\n", name)
	}
	return sb.String(), regressions, missing
}

// optCell renders an optional -benchmem column.
func optCell(a *float64) string {
	if a == nil {
		return "-"
	}
	return strconv.FormatFloat(*a, 'f', 0, 64)
}

// HistoryEntry is one perf-trajectory record: a benchmark's numbers at a
// commit. The trajectory file is JSONL — append-only, one record per
// benchmark per recorded run — so tooling can chart ns/op across PRs
// without parsing bench logs.
type HistoryEntry struct {
	Commit      string   `json:"commit"`
	Bench       string   `json:"bench"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"b_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Tier records the GF kernel dispatch tier and CPU features the
	// numbers were measured under (e.g. "gfni (avx2 gfni ssse3)"), so a
	// trajectory step caused by a different kernel level is attributable
	// without chasing runner hardware.
	Tier string `json:"gf_tier,omitempty"`
}

// resolveCommit returns the explicit commit id, or asks git, or falls
// back to "unknown" (the trajectory stays useful even outside a repo).
func resolveCommit(explicit string) string {
	if explicit != "" {
		return explicit
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// appendHistory appends one JSONL record per benchmark, sorted by name
// for deterministic output.
func appendHistory(path, commit, tier string, fresh map[string]Entry) error {
	names := make([]string, 0, len(fresh))
	for name := range fresh {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		e := fresh[name]
		rec := HistoryEntry{
			Commit: commit, Bench: name,
			NsPerOp: e.NsPerOp, BytesPerOp: e.BytesPerOp, AllocsPerOp: e.AllocsPerOp,
			Tier: tier,
		}
		data, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		sb.Write(data)
		sb.WriteByte('\n')
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(sb.String()); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func readBaseline(path string) (Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Baseline{}, fmt.Errorf("reading baseline: %w (run with -update to create it)", err)
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return Baseline{}, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	return b, nil
}

func writeBaseline(path string, fresh map[string]Entry) error {
	b := Baseline{
		Note:       "benchmark reference for CI's bench-delta gate; refresh by piping the matching `go test -bench` run into `go run ./cmd/benchdelta -baseline <file> -update` after an intentional perf change",
		Benchmarks: fresh,
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
