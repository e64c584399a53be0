package harness

import (
	"reflect"
	"strings"
	"testing"

	"algossip/internal/core"
	"algossip/internal/graph"
)

func lineSpec() Spec {
	return Spec{
		Name:  "test",
		Graph: "line", Sizes: []int{8, 12},
		Protocol: ProtocolUniformAG,
		Trials:   2, Seed: 5,
	}
}

func TestSpecExpandDeterministic(t *testing.T) {
	a, b := lineSpec(), lineSpec()
	_, ta, err := a.Expand()
	if err != nil {
		t.Fatal(err)
	}
	_, tb, err := b.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(ta) != 4 {
		t.Fatalf("expanded to %d trials, want 4", len(ta))
	}
	for i := range ta {
		if ta[i].Seed != tb[i].Seed || ta[i].Cell != tb[i].Cell || ta[i].Num != tb[i].Num {
			t.Fatalf("expansion not deterministic at %d: %+v vs %+v", i, ta[i], tb[i])
		}
		// The default layout is the historical sweep derivation.
		want := core.SplitSeed(5, uint64(ta[i].Size*1000+ta[i].Num))
		if ta[i].Seed != want {
			t.Fatalf("trial %d seed %d, want sweep layout %d", i, ta[i].Seed, want)
		}
	}
}

func TestSpecExpandValidation(t *testing.T) {
	bad := []Spec{
		{Graph: "line", Sizes: []int{8}},                                    // no trials
		{Trials: 1},                                                         // no graphs or sizes
		{Graph: "bogus", Sizes: []int{8}, Trials: 1},                        // unknown family
		{Graph: "line", Sizes: []int{8}, KMode: "cube", Trials: 1},          // bad kmode
		{Graph: "line", Sizes: []int{8, 12}, Ks: []int{1}, Trials: 1},       // Ks/cells mismatch
		{Graphs: []*graph.Graph{graph.Line(4)}, Ks: []int{0, 1}, Trials: 1}, // Ks/cells mismatch
	}
	for i, s := range bad {
		if _, _, err := s.Expand(); err == nil {
			t.Errorf("spec %d accepted: %+v", i, s)
		}
	}
}

func TestPickK(t *testing.T) {
	tests := []struct {
		mode string
		n    int
		want int
	}{
		{"half", 64, 32},
		{"n", 64, 64},
		{"sqrt", 64, 8},
		{"sqrt", 10, 4},
		{"const:5", 100, 5},
	}
	for _, tt := range tests {
		got, err := PickK(tt.mode, tt.n)
		if err != nil || got != tt.want {
			t.Errorf("PickK(%q, %d) = %d, %v; want %d", tt.mode, tt.n, got, err, tt.want)
		}
	}
	for _, bad := range []string{"", "cube", "const:x", "const:0"} {
		if _, err := PickK(bad, 10); err == nil {
			t.Errorf("PickK(%q) accepted", bad)
		}
	}
}

func TestParseSizes(t *testing.T) {
	got, err := ParseSizes("16, 32,64")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{16, 32, 64}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ParseSizes = %v", got)
		}
	}
	for _, bad := range []string{"", "x", "16,1", "16,,32"} {
		if _, err := ParseSizes(bad); err == nil {
			t.Errorf("ParseSizes(%q) accepted", bad)
		}
	}
}

// TestByteIdenticalAcrossWorkers is the core determinism guarantee: the
// same Spec renders byte-identical CSV at -parallel 1, 4, 16.
func TestByteIdenticalAcrossWorkers(t *testing.T) {
	specs := []Spec{
		lineSpec(),
		{Graph: "barbell", Sizes: []int{8, 10}, KMode: "n",
			Protocol: ProtocolTAGRR, Trials: 3, Seed: 7},
		{Graph: "complete", Sizes: []int{8}, Protocol: ProtocolUncoded,
			Model: core.Asynchronous, Trials: 4, Seed: 11},
	}
	for _, spec := range specs {
		var wantCSV string
		for _, workers := range []int{1, 4, 16} {
			s := spec
			rs, err := Runner{Parallel: workers}.Run(&s)
			if err != nil {
				t.Fatalf("%s parallel=%d: %v", spec.Graph, workers, err)
			}
			var csvB strings.Builder
			if err := WriteCSV(&csvB, rs); err != nil {
				t.Fatal(err)
			}
			if wantCSV == "" {
				wantCSV = csvB.String()
				continue
			}
			if csvB.String() != wantCSV {
				t.Errorf("%s: CSV differs at parallel=%d:\ngot:\n%swant:\n%s",
					spec.Graph, workers, csvB.String(), wantCSV)
			}
		}
	}
}

// TestExecuteMatchesRunners pins Execute as the single launch path: a
// trial the Runner fans out of a Spec is the trial Execute runs for the
// same (GossipSpec, Protocol, seed), tree detail included.
func TestExecuteMatchesRunners(t *testing.T) {
	g := graph.Barbell(10)
	spec := Spec{Graphs: []*graph.Graph{g}, Ks: []int{10}, Protocol: ProtocolTAGRR, Trials: 3,
		TrialSeed: func(_, trial int) uint64 { return uint64(trial + 1) }}
	rs, err := Runner{Parallel: 2}.Run(&spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range rs.Trials {
		o, err := Execute(GossipSpec{Graph: g, K: 10}, ProtocolTAGRR, tr.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(o, rs.Outcomes[i]) {
			t.Fatalf("seed %d: Execute %+v vs Runner %+v", tr.Seed, o, rs.Outcomes[i])
		}
		if o.TreeRounds < 0 || o.TreeDepth < 0 {
			t.Fatalf("seed %d: TAG outcome missing tree detail: %+v", tr.Seed, o)
		}
	}
	o, err := Execute(GossipSpec{Graph: g, K: 10}, ProtocolUniformAG, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.NodeDoneRounds) != g.N() || o.Traffic.Sent == 0 {
		t.Fatalf("AG outcome missing detail: %+v", o)
	}
}

// TestSpecDefaults: a bare GossipSpec normalizes to the paper's canonical
// configuration, and the selector names are the ones reports print.
// TestObserverHearsEveryProtocol: the observer sits on the round ledger, so
// every protocol reports each node's completion once, at the round the
// Outcome records for it, in both time models.
func TestObserverHearsEveryProtocol(t *testing.T) {
	g := graph.Barbell(12)
	for _, proto := range []Protocol{ProtocolUniformAG, ProtocolUncoded, ProtocolTAGRR, ProtocolTAGUniform, ProtocolTAGIS} {
		for _, model := range []core.TimeModel{core.Synchronous, core.Asynchronous} {
			log := &doneLog{}
			out, err := Execute(GossipSpec{Graph: g, K: 6, Model: model, Observer: log}, proto, 3)
			if err != nil {
				t.Fatalf("%v/%v: %v", proto, model, err)
			}
			if len(log.events) != g.N() {
				t.Errorf("%v/%v: %d NodeDone events for %d nodes", proto, model, len(log.events), g.N())
			}
			for _, e := range log.events {
				if out.NodeDoneRounds[e[0]] != e[1] {
					t.Errorf("%v/%v: node %d reported done at round %d, Outcome says %d",
						proto, model, e[0], e[1], out.NodeDoneRounds[e[0]])
				}
			}
		}
	}
}

func TestSpecDefaults(t *testing.T) {
	s := GossipSpec{Graph: graph.Line(4), K: 2}.Normalize()
	if s.Model != core.Synchronous || s.Q != 2 || s.Action != core.Exchange ||
		s.Selector != SelUniform || s.MaxRounds == 0 {
		t.Fatalf("defaults wrong: %+v", s)
	}
	if SelUniform.String() != "uniform" || SelRoundRobin.String() != "round-robin" {
		t.Fatal("SelectorKind strings wrong")
	}
}

// TestLeanSkipsNodeDetailOnly: Lean drops the O(n) per-node slice but
// changes nothing about the measured trajectory.
func TestLeanSkipsNodeDetailOnly(t *testing.T) {
	g := graph.Barbell(10)
	full, err := Execute(GossipSpec{Graph: g, K: 10}, ProtocolTAGRR, 7)
	if err != nil {
		t.Fatal(err)
	}
	lean, err := Execute(GossipSpec{Graph: g, K: 10, Lean: true}, ProtocolTAGRR, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(lean.NodeDoneRounds) != 0 {
		t.Fatalf("lean outcome kept node detail: %v", lean.NodeDoneRounds)
	}
	if len(full.NodeDoneRounds) == 0 {
		t.Fatal("full outcome missing node detail")
	}
	if lean.Result.Rounds != full.Result.Rounds || lean.Traffic != full.Traffic ||
		lean.TreeRounds != full.TreeRounds {
		t.Fatalf("lean changed measurements: %+v vs %+v", lean, full)
	}
}

func TestProtocolParseRoundTrip(t *testing.T) {
	for _, p := range []Protocol{ProtocolUniformAG, ProtocolTAGRR,
		ProtocolTAGUniform, ProtocolTAGIS, ProtocolUncoded} {
		got, err := ParseProtocol(p.String())
		if err != nil || got != p {
			t.Errorf("round trip %v: got %v, %v", p, got, err)
		}
	}
	if _, err := ParseProtocol("bogus"); err == nil {
		t.Error("bogus protocol accepted")
	}
}

func TestParallelMapOrderAndErrors(t *testing.T) {
	got, err := ParallelMap(20, 8, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("out of order at %d: %d", i, v)
		}
	}
	_, err = ParallelMap(20, 8, func(i int) (int, error) {
		if i%7 == 3 {
			return 0, errFor(i)
		}
		return i, nil
	})
	if err == nil || err.Error() != errFor(3).Error() {
		t.Fatalf("want lowest-index error %v, got %v", errFor(3), err)
	}
}

func errFor(i int) error { return &indexErr{i} }

type indexErr struct{ i int }

func (e *indexErr) Error() string { return "fail at " + string(rune('0'+e.i)) }

// TestExecutePayloadMode covers the payload-carrying configuration: the
// trial must complete with real payloads end to end (the coded path,
// not rank-only), be deterministic for a fixed seed, leave the
// rank-only trajectory of the same seed untouched, and be rejected for
// protocols that only support rank-only runs.
func TestExecutePayloadMode(t *testing.T) {
	g := graph.Complete(12)
	base := GossipSpec{Graph: g, K: 6, Q: 2}

	rankOnly, err := Execute(base, ProtocolUniformAG, 42)
	if err != nil {
		t.Fatal(err)
	}

	withPay := base
	withPay.PayloadLen = 32
	if withPay.RLNCConfig().RankOnly {
		t.Fatal("payload spec must not be rank-only")
	}
	o1, err := Execute(withPay, ProtocolUniformAG, 42)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := Execute(withPay, ProtocolUniformAG, 42)
	if err != nil {
		t.Fatal(err)
	}
	if o1.Result.Rounds != o2.Result.Rounds {
		t.Fatalf("payload mode not deterministic: %d vs %d rounds", o1.Result.Rounds, o2.Result.Rounds)
	}
	// Rank evolution ignores payload content, so the stopping time
	// matches the rank-only run of the same seed.
	if o1.Result.Rounds != rankOnly.Result.Rounds {
		t.Fatalf("payload run diverged from rank-only trajectory: %d vs %d rounds",
			o1.Result.Rounds, rankOnly.Result.Rounds)
	}

	if _, err := Execute(withPay, ProtocolTAGRR, 42); err == nil {
		t.Fatal("payload mode must be rejected for TAG")
	}
}
