package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"algossip/internal/core"
	"algossip/internal/graph"
	"algossip/internal/harness"
)

// TestAllExperimentsQuick runs the entire experiment registry in Quick mode
// — the full-stack integration test for the harness: every protocol, every
// topology family, every table renderer. Each deterministic artifact must
// also print, byte for byte, what the commit before the artifacts moved
// onto harness.Runner printed (testdata/parent_quick_seed42, recorded from
// 8f03e3f); E17's live half runs on the wall clock and has no fixture.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep skipped in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var sb strings.Builder
			if err := e.Run(&sb, Options{Quick: true, Seed: 42}); err != nil {
				t.Fatalf("%s (%s): %v", e.ID, e.Artifact, err)
			}
			out := sb.String()
			if len(out) < 50 {
				t.Fatalf("%s produced suspiciously short output:\n%s", e.ID, out)
			}
			if strings.Contains(out, "VIOLATION") || strings.Contains(out, "WARNING") {
				t.Errorf("%s flagged a violation:\n%s", e.ID, out)
			}
			if e.ID == "E17" {
				return
			}
			want, err := os.ReadFile(filepath.Join("testdata", "parent_quick_seed42", e.ID+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if out != string(want) {
				t.Errorf("%s moved off the parent's output:\ngot:\n%swant:\n%s", e.ID, out, want)
			}
		})
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("E10")
	if err != nil || e.ID != "E10" {
		t.Fatalf("ByID(E10) = %+v, %v", e, err)
	}
	if _, err := ByID("E99"); err == nil {
		t.Fatal("unknown ID accepted")
	}
}

// TestSpecDefaults: a cell with no mutator is the paper's canonical
// configuration on the artifacts' seed layout — opt.trials() trials, trial
// i being harness.Execute on stream 100+i of the root seed.
func TestSpecDefaults(t *testing.T) {
	opt := Options{Quick: true, Seed: 42}
	g := graph.Line(8)
	rs, err := runCell(opt, g, 4, harness.ProtocolUniformAG, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Outcomes) != opt.trials() {
		t.Fatalf("%d trials, want %d", len(rs.Outcomes), opt.trials())
	}
	for i, got := range rs.Outcomes {
		want, err := harness.Execute(harness.GossipSpec{Graph: g, K: 4, Lean: true},
			harness.ProtocolUniformAG, core.SplitSeed(opt.Seed, uint64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trial %d: cell %+v, Execute %+v", i, got, want)
		}
	}
}

// TestSingleSourceSpec exercises the mutator: what set moves on the Spec
// reaches the trial (here the single-source seeding path).
func TestSingleSourceSpec(t *testing.T) {
	g := graph.Complete(12)
	rs, err := runCell(Options{Seed: 5, Trials: 1}, g, 6, harness.ProtocolUniformAG,
		func(s *harness.Spec) { s.SingleSource = true })
	if err != nil {
		t.Fatal(err)
	}
	spec := harness.GossipSpec{Graph: g, K: 6, SingleSource: true, Lean: true}
	want, err := harness.Execute(spec, harness.ProtocolUniformAG, core.SplitSeed(5, 100))
	if err != nil {
		t.Fatal(err)
	}
	spec.SingleSource = false
	spread, err := harness.Execute(spec, harness.ProtocolUniformAG, core.SplitSeed(5, 100))
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Outcomes[0]; !reflect.DeepEqual(got, want) || reflect.DeepEqual(got, spread) {
		t.Errorf("cell %+v, single-source Execute %+v, round-robin Execute %+v", got, want, spread)
	}
}

func TestTableRender(t *testing.T) {
	tbl := NewTable("a", "bb")
	tbl.AddRow(1, 2.5)
	tbl.AddRow("xyz", "w")
	var sb strings.Builder
	if err := tbl.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"a", "bb", "2.50", "xyz"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}
