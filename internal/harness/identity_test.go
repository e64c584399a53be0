package harness

import (
	"reflect"
	"strings"
	"testing"

	"algossip/internal/gossip/algebraic"
	"algossip/internal/graph"
)

// fill sets v to a non-zero value of its type, recursing through
// pointers, slices and structs, so a test can flip a field it has never
// heard of.
func fill(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.String:
		v.SetString("x")
	case reflect.Int:
		v.SetInt(2)
	case reflect.Uint64:
		v.SetUint(2)
	case reflect.Float64:
		v.SetFloat(0.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fill(t, v.Index(0))
	case reflect.Pointer:
		if v.Type() == reflect.TypeOf((*graph.Graph)(nil)) {
			v.Set(reflect.ValueOf(graph.Complete(4)))
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i))
		}
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value {
			return []reflect.Value{reflect.Zero(v.Type().Out(0))}
		}))
	default:
		t.Fatalf("fill: no non-zero value for kind %v (%v); teach this helper the new field type", v.Kind(), v.Type())
	}
}

// executionFields are the Spec fields two runs of the same experiment
// may differ in, each with the reason it is not part of the identity.
// Everything else must move the fingerprint: a field forgotten there
// would let a checkpoint, a fabric worker or a store cell silently merge
// two different experiments.
var executionFields = map[string]string{
	"Lean":      "presentation only: drops the per-node detail from an Outcome, never changes a trajectory",
	"TrialSeed": "a function has no canonical form; a caller that overrides the layout keeps it stable itself (Fingerprint's contract)",
	"Shards":    "beyond zero/non-zero: any positive count replays the same trajectory, like Runner.Parallel",
}

// TestEverySpecFieldIsIdentityOrExecution walks Spec by reflection: a
// field either moves Fingerprint() when it alone changes, or sits on
// executionFields with its reason.
func TestEverySpecFieldIsIdentityOrExecution(t *testing.T) {
	typ := reflect.TypeOf(Spec{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		base, flipped := Spec{Shards: 1}, Spec{Shards: 1}
		fill(t, reflect.ValueOf(&flipped).Elem().Field(i))
		moved := base.Fingerprint() != flipped.Fingerprint()
		_, execution := executionFields[name]
		switch {
		case execution && moved:
			t.Errorf("Spec.%s is listed as an execution field but moves the fingerprint", name)
		case !execution && !moved:
			t.Errorf("Spec.%s does not reach Fingerprint(): fingerprint it (append-only), or add it to executionFields with the reason two runs of one experiment may differ in it", name)
		}
	}
	for name := range executionFields {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("executionFields names %q, which is not a Spec field", name)
		}
	}
}

// TestGossipSpecCopiesEverySpecField fills a Spec with non-zero values
// and requires gossipSpec to carry every field the two structs share by
// name — the hand-written copy cannot silently drop a knob. The
// GossipSpec fields a Spec does not have come from the trial (Graph, K)
// or are library-only.
func TestGossipSpecCopiesEverySpecField(t *testing.T) {
	var s Spec
	fill(t, reflect.ValueOf(&s).Elem())
	tr := Trial{Graph: graph.Complete(6), K: 3}
	gs := reflect.ValueOf(s.gossipSpec(tr))
	sv := reflect.ValueOf(s)
	notOnSpec := map[string]bool{"K": true, "PayloadLen": true, "Observer": true}
	for i := 0; i < gs.NumField(); i++ {
		name := gs.Type().Field(i).Name
		switch {
		case name == "Graph":
			if gs.Field(i).Interface() != tr.Graph {
				t.Error("gossipSpec did not take the trial's graph")
			}
		case notOnSpec[name]:
			if _, ok := sv.Type().FieldByName(name); ok {
				t.Errorf("Spec has grown a %s field; drop it from notOnSpec", name)
			}
		default:
			sf := sv.FieldByName(name)
			if !sf.IsValid() {
				t.Errorf("GossipSpec.%s has no Spec field of that name; add it to Spec or to notOnSpec", name)
			} else if !reflect.DeepEqual(gs.Field(i).Interface(), sf.Interface()) {
				t.Errorf("gossipSpec dropped Spec.%s", name)
			}
		}
	}
	if got := s.gossipSpec(tr).K; got != tr.K {
		t.Errorf("gossipSpec K = %d, want the trial's %d", got, tr.K)
	}
}

// TestCodecConfigsComeFromGossipSpec: Execute fills algebraic.Config and
// rlnc.Config by hand. Every field of either is accounted for here — the
// GossipSpec field it is copied from, or why it has none — so a knob added
// to one of the three structs cannot be forgotten in the others.
func TestCodecConfigsComeFromGossipSpec(t *testing.T) {
	const derived = "derived: "
	rlncFrom := map[string]string{
		"Field":        "Q",
		"K":            "K",
		"PayloadLen":   "PayloadLen",
		"RankOnly":     derived + "PayloadLen <= 0",
		"ForceGeneric": derived + "cross-validation in tests only; the backends are trajectory-identical",
	}
	algebraicFrom := map[string]string{
		"RLNC":      derived + "RLNCConfig(), above",
		"GenSize":   "GenSize",
		"Action":    "Action",
		"LossRate":  "LossRate",
		"Traits":    derived + "drawn from Adversary and Classes on seed streams 13 and 14",
		"TraitSeed": derived + "seed stream 15",
	}
	var spec GossipSpec
	sv := reflect.ValueOf(&spec).Elem()
	for _, src := range rlncFrom {
		if f := sv.FieldByName(src); f.IsValid() {
			fill(t, f)
		}
	}
	for _, c := range []struct {
		cfg    reflect.Value
		from   map[string]string
		filled bool // cfg was built from spec: a copied field is non-zero
	}{
		{reflect.ValueOf(spec.RLNCConfig()), rlncFrom, true},
		{reflect.ValueOf(algebraic.Config{}), algebraicFrom, false},
	} {
		typ := c.cfg.Type()
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			src, ok := c.from[name]
			switch {
			case !ok:
				t.Errorf("%v.%s: say which GossipSpec field Execute fills it from, or why it is derived", typ, name)
			case strings.HasPrefix(src, derived):
			case !sv.FieldByName(src).IsValid():
				t.Errorf("%v.%s is said to come from GossipSpec.%s, which does not exist", typ, name, src)
			case c.filled && c.cfg.Field(i).IsZero():
				t.Errorf("%v.%s is zero although GossipSpec.%s is set", typ, name, src)
			}
		}
		for name := range c.from {
			if _, ok := typ.FieldByName(name); !ok {
				t.Errorf("%v has no field %s", typ, name)
			}
		}
	}
}

// TestFingerprintPinnedDigests pins digests recorded from the commit
// before Fingerprint's tail was composed from regimeTags: every
// checkpoint and fabric session written by it must still be recognised.
func TestFingerprintPinnedDigests(t *testing.T) {
	pins := []struct {
		want string
		mut  func(*Spec)
	}{
		{"7ad087bae2185f7900f6029efc738a97adc65e2a734b04e277f66c1ce1e387af", func(*Spec) {}},
		{"a176977c9961feec3c8303f3b8367cb98c33165c4f506c10934c87027010e688", func(s *Spec) {
			s.Model, s.Action, s.Selector, s.SingleSource = 2, 1, SelRoundRobin, true
		}},
		{"67867adcc4182941c672777aee28d9dca9e54050d75f398fe88a2ed29284972d", func(s *Spec) {
			s.Dynamics = &Dynamics{Kind: "churn", Rate: 0.1}
			s.GenSize, s.Shards = 4, 3
		}},
		{"5cc07b9df75c853b7200e7b29e4a3d7d980ac87ecdbaf850283433436072f40a", func(s *Spec) {
			s.Adversary = &Adversary{Kind: "byzantine", Frac: 0.2}
			s.Classes = &Classes{Kind: "straggler", Frac: 0.25, Slow: 3}
			s.Fabric = "ci"
		}},
		{"963583209eecef84a75c3f24a68606e1af167ef248b2039b5bd6c9323ecd08b1", func(s *Spec) {
			s.LossRate, s.GenSize, s.Shards = 0.1, 2, 1
			s.Adversary = &Adversary{Kind: "byzantine", Frac: 0.1, Mode: "mix"}
			s.Classes = &Classes{Kind: "tiered", Frac: 0.5}
		}},
	}
	for i, p := range pins {
		s := Spec{Name: "pin", Graph: "ring", Sizes: []int{16, 32}, KMode: "const:8", Q: 2, Trials: 3, Seed: 7}
		p.mut(&s)
		if got := s.Fingerprint(); got != p.want {
			t.Errorf("pin %d: fingerprint %s, want %s", i, got, p.want)
		}
	}
}
