package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// A result set is a JSONL file of result records (bench -out): several
// passes of some workloads on one build. -compare judges set B against
// set A, metric by metric, with the bounds of BENCHMARK.json (endToEnd
// here). Passes of the two sets should alternate (A B A B) so that host
// drift falls on both.

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the driver computes spreads with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		pos := float64(i) * float64(len(s)+1) / 4 // 1-based rank
		lo := int(math.Floor(pos))
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	if m := median(xs); m != 0 {
		return (q3 - q1) / math.Abs(m)
	}
	return 0
}

// series is one metric of one workload across a set's passes.
type series struct {
	unit   string
	values []float64
}

// resultSet is what -compare knows of one file.
type resultSet struct {
	metrics   map[string]map[string]*series // workload/mode → metric → series
	seeds     map[string]map[uint64]bool
	simulated map[string]bool
	failed    map[string]int
	passes    map[string]int
}

func modeKey(r *result) string {
	if r.Trace {
		return r.Workload + " (traced)"
	}
	return r.Workload
}

func readResultSet(path string) (*resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := &resultSet{
		metrics: map[string]map[string]*series{}, seeds: map[string]map[uint64]bool{},
		simulated: map[string]bool{}, failed: map[string]int{}, passes: map[string]int{},
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		key := modeKey(&r)
		if rs.metrics[key] == nil {
			rs.metrics[key] = map[string]*series{}
			rs.seeds[key] = map[uint64]bool{}
		}
		for name, m := range r.Metrics {
			s := rs.metrics[key][name]
			if s == nil {
				s = &series{unit: m.Unit}
				rs.metrics[key][name] = s
			}
			s.values = append(s.values, m.Value)
		}
		rs.seeds[key][r.Seed] = true
		rs.simulated[key] = r.Simulated
		rs.failed[key] += r.Failed
		rs.passes[key]++
	}
	return rs, sc.Err()
}

// sameSeed reports whether both sets ran key with one and the same seed,
// in which case simulated statistics must agree exactly.
func sameSeed(a, b *resultSet, key string) bool {
	if len(a.seeds[key]) != 1 || len(b.seeds[key]) != 1 {
		return false
	}
	for s := range a.seeds[key] {
		return b.seeds[key][s]
	}
	return false
}

// runCompare prints every (workload, metric) of both sets with the delta,
// the bound and a verdict, and returns the exit code: 1 if any metric is
// worse, any run failed or a workload is missing from B.
//
//	ok          B's median is not worse than A's by more than the bound
//	worse       it is (or a simulated statistic differs at the same seed)
//	unresolved  a within-set spread exceeds the bound: the sets cannot tell
//	-           per-layer metric: no bound, delta shown for the reader
func runCompare(w io.Writer, pathA, pathB string) int {
	a, err := readResultSet(pathA)
	if err != nil {
		fatalf("%v", err)
	}
	b, err := readResultSet(pathB)
	if err != nil {
		fatalf("%v", err)
	}
	defs := map[string]metricDef{}
	for _, d := range endToEnd {
		defs[d.Name] = d
	}
	for _, d := range perLayer {
		defs[d.Name] = d
	}
	code := 0
	keys := make([]string, 0, len(a.metrics))
	for k := range a.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		fmt.Fprintf(w, "== %s  passes A=%d B=%d  failed A=%d B=%d\n", key, a.passes[key], b.passes[key], a.failed[key], b.failed[key])
		if b.metrics[key] == nil {
			fmt.Fprintln(w, "   missing from B: worse")
			code = 1
			continue
		}
		if a.failed[key] > 0 || b.failed[key] > 0 {
			fmt.Fprintln(w, "   failed trials: worse")
			code = 1
		}
		fmt.Fprintf(w, "   %-32s %14s %14s %-7s %8s %7s %7s %6s  %s\n", "metric", "A median", "B median", "unit", "delta", "sprdA", "sprdB", "bound", "verdict")
		names := make([]string, 0, len(a.metrics[key]))
		for n := range a.metrics[key] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, name := range names {
			sa, sb := a.metrics[key][name], b.metrics[key][name]
			if sb == nil {
				fmt.Fprintf(w, "   %-32s missing from B: worse\n", name)
				code = 1
				continue
			}
			ma, mb := median(sa.values), median(sb.values)
			d := defs[name]
			// delta > 0 means B is worse, whichever way the metric points.
			delta := 0.0
			if ma != 0 {
				delta = (mb - ma) / math.Abs(ma)
				if d.Better == "higher" {
					delta = -delta
				}
			}
			spA, spB := spread(sa.values), spread(sb.values)
			verdict := "-"
			switch {
			case d.Bound == 0:
			case name == "rounds_mean" && a.simulated[key] && sameSeed(a, b, key):
				verdict = "ok"
				if ma != mb || spA != 0 || spB != 0 {
					verdict = "worse"
				}
			case spA > d.Bound || spB > d.Bound:
				verdict = "unresolved"
			case delta > d.Bound:
				verdict = "worse"
			default:
				verdict = "ok"
			}
			if verdict == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "   %-32s %14.6g %14.6g %-7s %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				name, ma, mb, sa.unit, 100*delta, 100*spA, 100*spB, 100*d.Bound, verdict)
		}
	}
	return code
}
