package resultstore

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"algossip/internal/core"
	"algossip/internal/graph"
	"algossip/internal/harness"
)

func rec(graph string, n, k, trial, rounds int) Record {
	return Record{Spec: "t", Cell: Cell{Graph: graph, N: n, K: k, Q: 2, Protocol: "uniform-ag"},
		Trial: trial, Seed: uint64(trial), Rounds: rounds}
}

func mustOpen(t *testing.T, path string) *Store {
	t.Helper()
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreAppendQueryTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	s := mustOpen(t, path)
	defer s.Close()

	var recs []Record
	for i := 0; i < 100; i++ {
		recs = append(recs, rec("ring", 64, 32, i, 100+i))
	}
	recs = append(recs, rec("complete", 64, 32, 0, 7), rec("ring", 128, 64, 0, 9))
	if err := s.Append(recs...); err != nil {
		t.Fatal(err)
	}

	got, err := s.Query(Filter{Graph: "ring", N: 64, K: 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("cell query returned %d records, want 100", len(got))
	}
	for i, r := range got {
		if r.Rounds != 100+i {
			t.Fatalf("record %d out of order: %+v", i, r)
		}
	}

	ts, err := s.Tail(Filter{Graph: "ring", N: 64})
	if err != nil {
		t.Fatal(err)
	}
	// rounds are 100..199: P99 of 100 evenly spaced samples interpolates
	// at position 0.99*99 = 98.01.
	if ts.Trials != 100 || math.Abs(ts.P99-198.01) > 1e-9 || math.Abs(ts.P999-198.901) > 1e-9 {
		t.Fatalf("tail stats = %+v", ts)
	}
	if ts.Max != 199 || math.Abs(ts.Mean-149.5) > 1e-9 {
		t.Fatalf("tail stats = %+v", ts)
	}

	// Wildcard query spans cells; empty matches give NaN, not a panic —
	// the all-failed-range aggregation path.
	all, err := s.Query(Filter{})
	if err != nil || len(all) != 102 {
		t.Fatalf("wildcard query: %d records, err=%v", len(all), err)
	}
	empty, err := s.Tail(Filter{Graph: "nope"})
	if err != nil || empty.Trials != 0 || !math.IsNaN(empty.Mean) || !math.IsNaN(empty.P999) {
		t.Fatalf("empty tail = %+v, err=%v", empty, err)
	}
}

func TestStoreReopenUsesIndexAndSurvivesStaleness(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	s := mustOpen(t, path)
	if err := s.Append(rec("ring", 16, 8, 0, 11), rec("ring", 16, 8, 1, 13)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean reopen: sidecar is fresh.
	s = mustOpen(t, path)
	if got, _ := s.Query(Filter{Graph: "ring"}); len(got) != 2 {
		t.Fatalf("reopen lost records: %d", len(got))
	}
	// Appends after reopen extend the same cells.
	if err := s.Append(rec("ring", 16, 8, 2, 17)); err != nil {
		t.Fatal(err)
	}
	_ = s.Close()

	// Delete the sidecar: Open must rebuild by scanning.
	if err := os.Remove(path + ".idx"); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, path)
	got, _ := s.Query(Filter{Graph: "ring"})
	if len(got) != 3 || got[2].Rounds != 17 {
		t.Fatalf("scan rebuild lost records: %+v", got)
	}
	_ = s.Close()

	// Torn tail (kill mid-append): reopen truncates it, keeps the rest,
	// and further appends stay line-aligned.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"graph":"ring","n":16,`); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	_ = os.Remove(path + ".idx")
	s = mustOpen(t, path)
	if got, _ := s.Query(Filter{}); len(got) != 3 {
		t.Fatalf("torn tail corrupted the store: %d records", len(got))
	}
	if err := s.Append(rec("ring", 16, 8, 3, 19)); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Query(Filter{}); len(got) != 4 {
		t.Fatalf("append after torn-tail recovery: %d records", len(got))
	}
	_ = s.Close()
}

// TestFilterMatches: a Has* field makes the zero value a value to match,
// and Dynamics matches a schedule by its string or its kind.
func TestFilterMatches(t *testing.T) {
	static := Cell{Graph: "ring", N: 16}
	edge := Cell{Graph: "ring", N: 16, Dynamics: "edge:rate=0.2,period=1"}
	gens := Cell{Graph: "ring", N: 16, GenSize: 4}
	for _, c := range []struct {
		f                  Filter
		static, edge, gens bool
	}{
		{Filter{N: 16}, true, true, true},
		{Filter{Dynamics: "edge", GenSize: 4}, true, true, true}, // no Has*: wildcards
		{Filter{HasDynamics: true}, true, false, true},
		{Filter{HasGenSize: true}, true, true, false},
		{Filter{HasDynamics: true, HasGenSize: true}, true, false, false},
		{Filter{Dynamics: "edge", HasDynamics: true}, false, true, false},
		{Filter{Dynamics: "edge:rate=0.2,period=1", HasDynamics: true}, false, true, false},
		{Filter{Dynamics: "edge:rate=0.3,period=1", HasDynamics: true}, false, false, false},
		{Filter{GenSize: 4, HasGenSize: true}, false, false, true},
	} {
		if got := [3]bool{c.f.matches(static), c.f.matches(edge), c.f.matches(gens)}; got != [3]bool{c.static, c.edge, c.gens} {
			t.Errorf("%+v matches (static, edge, gens) = %v", c.f, got)
		}
	}
}

func TestStoreFromResultSet(t *testing.T) {
	spec := harness.Spec{
		Name: "rs", Graph: "ring", Sizes: []int{8}, KMode: "const:2",
		Trials: 3, Seed: 5, Lean: true,
	}
	rs, err := harness.Runner{Parallel: 1}.Run(&spec)
	if err != nil {
		t.Fatal(err)
	}
	recs := FromResultSet(rs)
	if len(recs) != 3 {
		t.Fatalf("%d records from 3 trials", len(recs))
	}
	for i, r := range recs {
		if r.Graph != "ring" || r.N != 8 || r.K != 2 || r.Q != 2 ||
			r.Protocol != "uniform-ag" || r.Trial != i || r.Rounds <= 0 {
			t.Fatalf("record %d = %+v", i, r)
		}
	}

	path := filepath.Join(t.TempDir(), "store.jsonl")
	s := mustOpen(t, path)
	defer s.Close()
	if err := s.Append(recs...); err != nil {
		t.Fatal(err)
	}
	ts, err := s.Tail(Filter{Spec: "rs", Graph: "ring", N: 8, K: 2, Q: 2})
	if err != nil || ts.Trials != 3 {
		t.Fatalf("cell tail = %+v, err=%v", ts, err)
	}
}

// TestStoreOpensParentFile: a store written before Record had a regime
// (testdata/parent_store.jsonl, with the sidecar that commit flushed)
// opens through the sidecar and through a full rescan alike, with the
// cell keys that commit indexed and the numbers its `fabricd query`
// printed; new rows of the default regime extend those same cells.
func TestStoreOpensParentFile(t *testing.T) {
	want := []CellCount{
		{Cell{Graph: "ring", N: 12, K: 6, Q: 2, Protocol: "uniform-ag"}, 3},
		{Cell{Graph: "ring", N: 16, K: 8, Q: 2, Protocol: "uniform-ag"}, 3},
		{Cell{Graph: "torus", N: 16, K: 8, Q: 16, Protocol: "uniform-ag", Dynamics: "edge:rate=0.2,period=1", GenSize: 4}, 3},
	}
	for _, withSidecar := range []bool{true, false} {
		path := filepath.Join(t.TempDir(), "store.jsonl")
		for _, ext := range []string{"", ".idx"} {
			data, err := os.ReadFile(filepath.Join("testdata", "parent_store.jsonl"+ext))
			if err != nil {
				t.Fatal(err)
			}
			if ext == "" || withSidecar {
				if err := os.WriteFile(path+ext, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		s := mustOpen(t, path)
		if got := s.Cells(); !reflect.DeepEqual(got, want) {
			t.Fatalf("sidecar=%v: cells = %+v, want %+v", withSidecar, got, want)
		}
		ts, err := s.Tail(Filter{Graph: "ring", N: 16})
		if err != nil || ts.String() != "trials=3 mean=23.0 p50=24.0 p90=24.0 p99=24.0 p99.9=24.0 max=24" {
			t.Fatalf("sidecar=%v: ring/16 tail = %v, err=%v", withSidecar, ts, err)
		}
		all, err := s.Tail(Filter{Regime: "", HasRegime: true})
		if err != nil || all.String() != "trials=9 mean=16.1 p50=14.0 p90=24.0 p99=24.0 p99.9=24.0 max=24" {
			t.Fatalf("sidecar=%v: default-regime tail = %v, err=%v", withSidecar, all, err)
		}
		if err := s.Append(Record{Spec: "sweep", Cell: want[1].Cell, Trial: 3, Rounds: 22}); err != nil {
			t.Fatal(err)
		}
		if got := s.Cells(); len(got) != 3 || got[1].Trials != 4 {
			t.Fatalf("sidecar=%v: a default-regime row did not extend the old cell: %+v", withSidecar, got)
		}
		_ = s.Close()
	}
}

// identityMutations flips each harness.Spec field that decides the
// distribution a stored stopping time is drawn from. Every one of them
// must move the (cell, regime) key — and the checkpoint fingerprint —
// or two different experiments share a cell and a tail summary.
var identityMutations = map[string]func(*harness.Spec){
	"Graph":        func(s *harness.Spec) { s.Graph = "complete" },
	"Sizes":        func(s *harness.Spec) { s.Sizes = []int{12} },
	"Graphs":       func(s *harness.Spec) { s.Graphs = []*graph.Graph{graph.Barbell(10)} },
	"KMode":        func(s *harness.Spec) { s.KMode = "n" },
	"Ks":           func(s *harness.Spec) { s.Ks = []int{3} },
	"Protocol":     func(s *harness.Spec) { s.Protocol = harness.ProtocolUncoded },
	"Model":        func(s *harness.Spec) { s.Model = core.Asynchronous },
	"Q":            func(s *harness.Spec) { s.Q = 16 },
	"Action":       func(s *harness.Spec) { s.Action = core.Push },
	"Selector":     func(s *harness.Spec) { s.Selector = harness.SelRoundRobin },
	"SingleSource": func(s *harness.Spec) { s.SingleSource = true },
	"LossRate":     func(s *harness.Spec) { s.LossRate = 0.1 },
	"Dynamics":     func(s *harness.Spec) { s.Dynamics = &harness.Dynamics{Kind: "edge", Rate: 0.2} },
	"GenSize":      func(s *harness.Spec) { s.GenSize = 2 },
	"Shards":       func(s *harness.Spec) { s.Shards = 2 },
	"Adversary":    func(s *harness.Spec) { s.Adversary = &harness.Adversary{Kind: "byzantine", Frac: 0.2} },
	"Classes":      func(s *harness.Spec) { s.Classes = &harness.Classes{Kind: "straggler", Frac: 0.2} },
}

// notInCell are the Spec fields a cell rightly ignores: labels and
// budgets (rows of one cell may come from differently named sweeps with
// different seeds and trial counts) and the execution fields.
var notInCell = map[string]bool{
	"Name": true, "Fabric": true, "Trials": true, "Seed": true, "MaxRounds": true,
	"Lean": true, "TrialSeed": true,
}

func TestCellAndRegimeCarrySpecIdentity(t *testing.T) {
	key := func(s harness.Spec) (Cell, string) {
		t.Helper()
		cells, trials, err := s.Expand()
		if err != nil {
			t.Fatal(err)
		}
		rs := &harness.ResultSet{Spec: &s, Cells: cells, Trials: trials, Outcomes: make([]harness.Outcome, len(trials))}
		return FromResultSet(rs)[0].Cell, s.Fingerprint()
	}
	base := harness.Spec{Name: "id", Graph: "ring", Sizes: []int{8}, Trials: 1, Seed: 5}
	baseCell, baseFP := key(base)
	if baseCell.Regime != "" {
		t.Errorf("default spec has regime %q", baseCell.Regime)
	}
	typ := reflect.TypeOf(harness.Spec{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		mut := identityMutations[name]
		if (mut == nil) == !notInCell[name] {
			t.Errorf("Spec.%s must be in exactly one of identityMutations and notInCell", name)
		}
		if mut == nil {
			continue
		}
		s := base
		mut(&s)
		cell, fp := key(s)
		if cell == baseCell {
			t.Errorf("flipping Spec.%s leaves the store cell and regime unchanged: %+v", name, cell)
		}
		if fp == baseFP {
			t.Errorf("flipping Spec.%s leaves the fingerprint unchanged", name)
		}
	}
}
