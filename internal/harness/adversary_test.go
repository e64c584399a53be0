package harness

import (
	"strings"
	"testing"

	"algossip/internal/core"
	"algossip/internal/gossip/algebraic"
	"algossip/internal/graph"
)

// TestParseAdversary: the flag grammar round-trips through the canonical
// String form, and every malformed input is rejected at parse time.
func TestParseAdversary(t *testing.T) {
	good := map[string]string{
		"byzantine:frac=0.1,mode=pollute":    "byzantine:frac=0.1,mode=pollute",
		"byzantine:frac=0.2":                 "byzantine:frac=0.2,mode=pollute",
		"byzantine:frac=0.25,mode=mix":       "byzantine:frac=0.25,mode=mix",
		"byzantine:frac=0.5,mode=replay":     "byzantine:frac=0.5,mode=replay",
		" byzantine:frac=0.1,mode=freeride ": "byzantine:frac=0.1,mode=freeride",
	}
	for in, want := range good {
		a, err := ParseAdversary(in)
		if err != nil {
			t.Errorf("ParseAdversary(%q): %v", in, err)
			continue
		}
		if got := a.String(); got != want {
			t.Errorf("ParseAdversary(%q).String() = %q, want %q", in, got, want)
		}
	}
	if a, err := ParseAdversary(""); a != nil || err != nil {
		t.Errorf("empty adversary: got (%v, %v), want (nil, nil)", a, err)
	}
	bad := []string{
		"byzantine",                    // frac=0: omit the flag instead
		"byzantine:frac=0",             // same
		"byzantine:frac=1",             // nobody honest
		"byzantine:frac=-0.1",          // negative
		"byzantine:frac=0.1,mode=evil", // unknown mode
		"martian:frac=0.1",             // unknown kind
		"byzantine:frac",               // not key=value
		"byzantine:frac=x",             // bad float
		"byzantine:period=3",           // unknown key
	}
	for _, in := range bad {
		if _, err := ParseAdversary(in); err == nil {
			t.Errorf("ParseAdversary(%q) accepted", in)
		}
	}
}

// TestParseClasses: same grammar contract for the heterogeneity flag.
func TestParseClasses(t *testing.T) {
	good := map[string]string{
		"straggler:frac=0.2,slow=4":  "straggler:frac=0.2,slow=4",
		"straggler:frac=0.5":         "straggler:frac=0.5,slow=4",
		"tiered:frac=0.25,boost=3":   "tiered:frac=0.25,boost=3",
		"tiered:frac=1":              "tiered:frac=1,boost=2",
		"straggler:frac=0.1,slow=16": "straggler:frac=0.1,slow=16",
	}
	for in, want := range good {
		c, err := ParseClasses(in)
		if err != nil {
			t.Errorf("ParseClasses(%q): %v", in, err)
			continue
		}
		if got := c.String(); got != want {
			t.Errorf("ParseClasses(%q).String() = %q, want %q", in, got, want)
		}
	}
	if c, err := ParseClasses(""); c != nil || err != nil {
		t.Errorf("empty classes: got (%v, %v), want (nil, nil)", c, err)
	}
	bad := []string{
		"straggler:frac=0",           // omit the flag instead
		"straggler:frac=1.5",         // > 1
		"straggler:frac=0.2,slow=1",  // slow < 2
		"straggler:frac=0.2,boost=2", // boost on straggler
		"tiered:frac=0.2,slow=4",     // slow on tiered
		"tiered:frac=0.2,boost=1",    // boost < 2
		"vip:frac=0.2",               // unknown kind
		"straggler:slow",             // not key=value
		"straggler:frac=0.1,rate=2",  // unknown key
	}
	for _, in := range bad {
		if _, err := ParseClasses(in); err == nil {
			t.Errorf("ParseClasses(%q) accepted", in)
		}
	}
}

// TestBuildTraits: the drawn population sizes are exact (floor(frac·n)),
// at least one node stays honest for any frac < 1, the draw is a pure
// function of the seeds, and mix cycles all three behaviors.
func TestBuildTraits(t *testing.T) {
	const n = 40
	adv := &Adversary{Kind: "byzantine", Frac: 0.2, Mode: "mix"}
	cls := &Classes{Kind: "straggler", Frac: 0.25, Slow: 6}
	tr := buildTraits(n, adv, cls, 7, 8)
	var byz, slow int
	seen := map[algebraic.Behavior]int{}
	for _, x := range tr {
		if x.Behavior != algebraic.Honest {
			byz++
			seen[x.Behavior]++
		}
		if x.Slow == 6 {
			slow++
		}
	}
	if byz != 8 {
		t.Errorf("byzantine count = %d, want floor(0.2*40) = 8", byz)
	}
	if slow != 10 {
		t.Errorf("straggler count = %d, want floor(0.25*40) = 10", slow)
	}
	for _, b := range []algebraic.Behavior{algebraic.Pollute, algebraic.Replay, algebraic.FreeRide} {
		if seen[b] == 0 {
			t.Errorf("mix mode assigned no %v nodes", b)
		}
	}
	tr2 := buildTraits(n, adv, cls, 7, 8)
	for i := range tr {
		if tr[i] != tr2[i] {
			t.Fatalf("trait draw is not a pure function of the seeds (node %d)", i)
		}
	}
	if buildTraits(n, nil, nil, 1, 2) != nil {
		t.Error("trivial declarations built a trait table")
	}
}

// TestExecuteAdversarialConverges: end-to-end through Execute — honest
// seeding, trait draw, verification accounting — for every mode and for
// classes, including combined regimes.
func TestExecuteAdversarialConverges(t *testing.T) {
	g := graph.Complete(20)
	base := GossipSpec{Graph: g, K: 10}
	for _, tc := range []struct {
		name    string
		adv     string
		cls     string
		genSize int
	}{
		{"pollute", "byzantine:frac=0.2,mode=pollute", "", 0},
		{"replay", "byzantine:frac=0.2,mode=replay", "", 0},
		{"freeride", "byzantine:frac=0.2,mode=freeride", "", 0},
		{"mix", "byzantine:frac=0.3,mode=mix", "", 0},
		{"straggler", "", "straggler:frac=0.3,slow=4", 0},
		{"tiered", "", "tiered:frac=0.25,boost=3", 0},
		{"combined", "byzantine:frac=0.15,mode=mix", "straggler:frac=0.2,slow=4", 0},
		{"combined/generations", "byzantine:frac=0.15,mode=mix", "straggler:frac=0.2,slow=4", 4},
		{"tiered/generations", "", "tiered:frac=0.25,boost=3", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := base
			spec.GenSize = tc.genSize
			var err error
			if spec.Adversary, err = ParseAdversary(tc.adv); err != nil {
				t.Fatal(err)
			}
			if spec.Classes, err = ParseClasses(tc.cls); err != nil {
				t.Fatal(err)
			}
			out, err := Execute(spec, ProtocolUniformAG, 42)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Result.Completed {
				t.Fatalf("did not converge: %+v", out.Result)
			}
			if tc.adv != "" && out.Traffic.Verified == 0 {
				t.Error("adversarial run recorded no verification")
			}
			if tc.adv == "" && out.Traffic.Verified != 0 {
				t.Error("honest heterogeneous run paid verification")
			}
			// A verifier checks the coefficients on the wire plus r = 1.
			wire := spec.K
			if tc.genSize > 0 {
				wire = tc.genSize
			}
			if want := out.Traffic.Verified * (wire + 1); out.Traffic.VerifyOps != want {
				t.Errorf("VerifyOps = %d, want Verified*(%d+1) = %d", out.Traffic.VerifyOps, wire, want)
			}
			if strings.Contains(tc.adv, "pollute") || strings.Contains(tc.adv, "mix") {
				if out.Traffic.Polluted == 0 {
					t.Error("pollution ran undetected")
				}
			}
		})
	}
}

// TestAdversarialParallelIdentity is the acceptance gate for scheduler
// independence: an adversarial+heterogeneous sweep produces byte-identical
// CSV for -parallel 1, 4 and 16, because all adversarial randomness
// derives from the per-trial seed, never from execution order.
func TestAdversarialParallelIdentity(t *testing.T) {
	spec := func() Spec {
		adv, err := ParseAdversary("byzantine:frac=0.2,mode=mix")
		if err != nil {
			t.Fatal(err)
		}
		cls, err := ParseClasses("straggler:frac=0.2,slow=4")
		if err != nil {
			t.Fatal(err)
		}
		return Spec{
			Name: "adv-identity", Graph: "complete", Sizes: []int{16, 24},
			Trials: 4, Seed: 5, Adversary: adv, Classes: cls,
		}
	}
	want := runToCSV(t, Runner{Parallel: 1}, spec())
	for _, par := range []int{4, 16} {
		if got := runToCSV(t, Runner{Parallel: par}, spec()); got != want {
			t.Fatalf("-parallel %d diverged from -parallel 1:\n%s\nvs\n%s", par, got, want)
		}
	}
}

// TestAdversarySeedStreams pins the dedicated seed-stream layout (13
// adversary set, 14 class membership): the drawn populations must match
// an independent draw from those streams exactly, so the layout can never
// silently renumber.
func TestAdversarySeedStreams(t *testing.T) {
	const n, seed = 30, 77
	adv := &Adversary{Kind: "byzantine", Frac: 0.2, Mode: "freeride"}
	cls := &Classes{Kind: "tiered", Frac: 0.3, Boost: 2}
	got := buildTraits(n, adv, cls, core.SplitSeed(seed, 13), core.SplitSeed(seed, 14))

	advPerm := core.NewRand(core.SplitSeed(seed, 13)).Perm(n)
	clsPerm := core.NewRand(core.SplitSeed(seed, 14)).Perm(n)
	want := make([]algebraic.NodeTraits, n)
	for i := 0; i < 6; i++ { // floor(0.2*30)
		want[advPerm[i]].Behavior = algebraic.FreeRide
	}
	for i := 0; i < 9; i++ { // floor(0.3*30)
		want[clsPerm[i]].Boost = 2
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("node %d: traits %+v, want %+v (seed-stream layout changed?)", i, got[i], want[i])
		}
	}
}
