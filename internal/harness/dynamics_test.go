package harness

import (
	"strings"
	"testing"

	"algossip/internal/graph"
)

func TestParseDynamics(t *testing.T) {
	good := []struct {
		in   string
		want string
	}{
		{"edge:rate=0.2", "edge:rate=0.2,period=1"},
		{"churn:rate=0.1,period=16", "churn:rate=0.1,period=16"},
		{"churn:rate=0.1", "churn:rate=0.1,period=16"},
		{"rewire:rate=0.3,period=32", "rewire:rate=0.3,period=32"},
		{"burst:rate=0.5,period=64,burst=8", "burst:rate=0.5,period=64,burst=8"},
		{"burst:rate=0.5", "burst:rate=0.5,period=64,burst=8"},
		{"grow:period=4", "grow:rate=0,period=4"},
		{"grow", "grow:rate=0,period=4"},
		{"static", "static"},
	}
	for _, tt := range good {
		d, err := ParseDynamics(tt.in)
		if err != nil {
			t.Errorf("ParseDynamics(%q): %v", tt.in, err)
			continue
		}
		if got := d.String(); got != tt.want {
			t.Errorf("ParseDynamics(%q).String() = %q, want %q", tt.in, got, tt.want)
		}
	}
	if d, err := ParseDynamics(""); err != nil || d != nil {
		t.Errorf("empty flag: d=%v err=%v, want nil/nil", d, err)
	}
	bad := []string{
		"bogus", "edge:rate=x", "edge:rate", "edge:speed=1", "edge:rate=1.5",
		"churn:period=0", "burst:rate=0.5,period=4,burst=9", "edge:rate=-0.1",
		// Options the kind ignores would silently skew the fingerprint.
		"edge:rate=0.2,period=5", "grow:rate=0.2", "churn:rate=0.1,burst=3",
		"static:rate=0.5", "static:period=7", "static:burst=3",
	}
	for _, in := range bad {
		if _, err := ParseDynamics(in); err == nil {
			t.Errorf("ParseDynamics(%q) accepted", in)
		}
	}
	// A typo'd kind must name the kind, not complain about a period the
	// user never set.
	if _, err := ParseDynamics("churn2:rate=0.1"); err == nil ||
		!strings.Contains(err.Error(), "unknown dynamics kind") {
		t.Errorf("typo'd kind error = %v, want unknown-kind message", err)
	}
}

func TestDynamicsIsStatic(t *testing.T) {
	var nilDyn *Dynamics
	for _, d := range []*Dynamics{nilDyn, {}, {Kind: "static"}} {
		if !d.IsStatic() {
			t.Errorf("%+v not recognized as static", d)
		}
	}
	if (&Dynamics{Kind: "edge", Rate: 0.1}).IsStatic() {
		t.Error("edge dynamics claimed static")
	}
}

func TestDynamicsBuildKinds(t *testing.T) {
	g := graph.Ring(16)
	for _, d := range []*Dynamics{
		{Kind: "edge", Rate: 0.2},
		{Kind: "burst", Rate: 0.5},
		{Kind: "rewire", Rate: 0.3},
		{Kind: "churn", Rate: 0.1},
		{Kind: "grow"},
	} {
		if err := d.validate(g.N()); err != nil {
			t.Fatalf("validate(%s): %v", d, err)
		}
		if g0 := d.build(g, 7).At(0); g0 == nil || g0.N() != g.N() {
			t.Errorf("%s: round-0 graph %v, want %d nodes", d, g0, g.N())
		}
	}
	grow := &Dynamics{Kind: "grow"}
	if err := grow.validate(3); err == nil {
		t.Error("grow over 3 nodes accepted")
	}
	if err := grow.validate(0); err != nil {
		t.Errorf("grow with the node count unknown: %v", err)
	}
}

// TestFingerprintDynamics: static dynamics leave the pre-dynamics
// fingerprint untouched (old checkpoints stay resumable), while real
// dynamics — and each distinct parameterization — change it.
func TestFingerprintDynamics(t *testing.T) {
	base := func() *Spec {
		return &Spec{Name: "fp", Graph: "ring", Sizes: []int{16}, Trials: 2, Seed: 3}
	}
	plain := base().Fingerprint()
	static := base()
	static.Dynamics = &Dynamics{Kind: "static"}
	if static.Fingerprint() != plain {
		t.Error("static dynamics changed the fingerprint")
	}
	edge := base()
	edge.Dynamics = &Dynamics{Kind: "edge", Rate: 0.2}
	if edge.Fingerprint() == plain {
		t.Error("edge dynamics did not change the fingerprint")
	}
	edge2 := base()
	edge2.Dynamics = &Dynamics{Kind: "edge", Rate: 0.3}
	if edge2.Fingerprint() == edge.Fingerprint() {
		t.Error("different rates share a fingerprint")
	}
}

// TestRunnerDynamicsDeterministic: a dynamic spec through the pool is
// byte-identical (same outcomes) for any worker count.
func TestRunnerDynamicsDeterministic(t *testing.T) {
	spec := func() *Spec {
		return &Spec{
			Name: "dyn", Graph: "torus", Sizes: []int{16}, KMode: "half",
			Dynamics: &Dynamics{Kind: "churn", Rate: 0.2, Period: 8},
			Trials:   6, Seed: 9, MaxRounds: 1 << 17,
		}
	}
	var want []int
	for _, workers := range []int{1, 4, 16} {
		rs, err := Runner{Parallel: workers}.Run(spec())
		if err != nil {
			t.Fatal(err)
		}
		got := make([]int, len(rs.Outcomes))
		for i, o := range rs.Outcomes {
			if !o.Result.Completed {
				t.Fatalf("trial %d incomplete", i)
			}
			got[i] = o.Result.Rounds
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("-parallel %d: trial %d gave %d rounds, want %d", workers, i, got[i], want[i])
			}
		}
	}
}
