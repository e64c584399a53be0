package harness

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"algossip/internal/core"
)

// boundFlags binds s the way a binary does and returns name → help text.
func boundFlags(s *Spec, grid bool) map[string]string {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s.BindFlags(fs)
	if grid {
		s.BindGridFlags(fs)
	}
	out := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { out[f.Name] = f.Usage })
	return out
}

// TestBindFlagsParity: the experiment words and their help text do not
// depend on which binary's defaults the Spec carries, and they are
// exactly the names the three binaries had between them before there was
// one list — a new word is a new option and has to be argued for.
func TestBindFlagsParity(t *testing.T) {
	sweep := Spec{Name: "sweep", Graph: "barbell", Sizes: []int{16, 32, 64}, KMode: "half", Q: 2, Trials: 3, Seed: 1, Lean: true}
	gossipsim := Spec{Name: "gossipsim", Graph: "grid", Protocol: ProtocolUniformAG, Model: core.Synchronous, Q: 2, Action: core.Exchange, Trials: 3, Seed: 1}
	want := boundFlags(&sweep, false)
	for name, s := range map[string]*Spec{"gossipsim": &gossipsim, "zero": {}} {
		if got := boundFlags(s, false); !reflect.DeepEqual(got, want) {
			t.Errorf("%s defaults changed the bound flags:\n got %v\nwant %v", name, got, want)
		}
	}
	names := []string{"graph", "protocol", "model", "q", "action", "dynamics", "adversary",
		"classes", "generations", "shards", "trials", "single-source", "seed"}
	if len(want) != len(names) {
		t.Errorf("BindFlags registers %d flags, want %d", len(want), len(names))
	}
	for _, n := range names {
		if want[n] == "" {
			t.Errorf("BindFlags does not register -%s (or it has no help text)", n)
		}
	}
	grid := boundFlags(&sweep, true)
	if len(grid) != len(names)+2 || grid["sizes"] == "" || grid["kmode"] == "" {
		t.Errorf("BindGridFlags should add exactly -sizes and -kmode, got %d flags", len(grid))
	}
}

// TestBindFlagsParseIntoSpec: every word lands in its field, and an
// unset word leaves the binary's default alone.
func TestBindFlagsParseIntoSpec(t *testing.T) {
	s := Spec{Graph: "barbell", Sizes: []int{16, 32, 64}, KMode: "half", Q: 2, Trials: 3, Seed: 1}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	s.BindFlags(fs)
	s.BindGridFlags(fs)
	if err := fs.Parse([]string{"-graph", "ring", "-protocol", "tag-is", "-model", "async", "-q", "16",
		"-action", "push", "-dynamics", "churn:rate=0.1", "-adversary", "byzantine:frac=0.1,mode=replay",
		"-classes", "tiered:frac=0.5", "-generations", "4", "-shards", "2", "-single-source",
		"-seed", "9", "-sizes", "8,12", "-kmode", "n"}); err != nil {
		t.Fatal(err)
	}
	want := Spec{
		Graph: "ring", Sizes: []int{8, 12}, KMode: "n", Protocol: ProtocolTAGIS, Model: core.Asynchronous,
		Q: 16, Action: core.Push, SingleSource: true, Dynamics: &Dynamics{Kind: "churn", Rate: 0.1},
		GenSize: 4, Shards: 2, Adversary: &Adversary{Kind: "byzantine", Frac: 0.1, Mode: "replay"},
		Classes: &Classes{Kind: "tiered", Frac: 0.5}, Trials: 3, Seed: 9,
	}
	if !reflect.DeepEqual(s, want) {
		t.Errorf("parsed spec\n got %+v\nwant %+v", s, want)
	}
}
