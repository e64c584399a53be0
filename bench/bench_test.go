package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"algossip/internal/gossip"
	"algossip/internal/rlnc"
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesProgram pins BENCHMARK.json to the program's
// own tables: same workloads, same metrics, units, directions and bounds,
// all within the contract's limits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	ws := workloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(ws))
	}
	seen := map[string]bool{}
	for i, w := range b.Workloads {
		if w.Name != ws[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, ws[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1..200 characters, has %d", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range got {
			if d != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, d, want[i])
			}
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("%s: bad or repeated name %q", kind, d.Name)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, d.Name, d.Better)
			}
			if d.Bound < 0 || d.Bound > 0.25 {
				t.Errorf("%s %s: bound %g outside [0, 0.25]", kind, d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// checkMetrics asserts res reports exactly defs: finite values, units as
// declared.
func checkMetrics(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, want %d", res.Workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", res.Workload, d.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", res.Workload, d.Name, m.Value)
		case m.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", res.Workload, d.Name, m.Unit, d.Unit)
		}
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d why=%q", res.Workload, res.Correct, res.Attempted, res.Failed, res.Why)
	}
}

// TestSmoke runs every workload end to end, and one traced pass, at a
// fiftieth of the size.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the five workloads")
	}
	const scale = 0.02
	out := t.TempDir()
	for _, w := range workloads() {
		res, err := runOne(w, out, 3, 20, scale, false, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkMetrics(t, res, endToEnd)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, m.Value)
			}
		}
	}
	res, err := runOne(findWorkload("payload_gf256"), out, 3, 20, scale, true, false)
	if err != nil {
		t.Fatalf("traced payload_gf256: %v", err)
	}
	checkMetrics(t, res, perLayer)
	if _, err := os.Stat(out + "/trace-payload_gf256.json"); err != nil {
		t.Errorf("trace file: %v", err)
	}
}

// TestWrongOutputFails: a corrupted decode and a corrupted CSV must both
// count as failed trials.
func TestWrongOutputFails(t *testing.T) {
	e := &env{p: 2, seed: 5, seconds: 0.1, scale: 0.02, dir: t.TempDir()}

	r, err := preparePayload(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	good, err := r.run()
	if err != nil || good.failed != 0 {
		t.Fatalf("clean payload rep: failed=%d err=%v", good.failed, err)
	}
	decoded := append([]rlnc.Message(nil), r.msgs...)
	decoded[7].Payload = append([]byte(nil), decoded[7].Payload...)
	decoded[7].Payload[100] ^= 1
	if out := payloadOutcome(r.msgs, decoded, 70, gossip.Traffic{}); out.failed != 1 {
		t.Errorf("one flipped bit in the decode: failed = %d, want 1", out.failed)
	}

	ref := &fabricRef{}
	ref.once.Do(func() {})
	ref.csv = []byte("graph,protocol,model,n,k,trial,rounds\nring-32,uniform-ag,synchronous,32,16,0,1\n")
	fr, err := prepareFabric(e, 0, ref)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.close()
	out, err := fr.run()
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != out.trials || out.trials == 0 {
		t.Errorf("CSV differing from the reference: failed = %d of %d, want all", out.failed, out.trials)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) = [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}
