package harness

import (
	"os"
	"strings"
	"testing"

	"algossip/internal/graph"
)

// TestDesignCombinationTable renders DESIGN.md's two combination tables
// from features and refusedPairs through validate — feature × feature
// under uniform AG, and feature × protocol — and requires the section to
// hold them verbatim. A cell reads ✓ when validate accepts it (and
// FuzzGossipSpec's seeds run it to completion) and "refused" when it
// does not.
func TestDesignCombinationTable(t *testing.T) {
	for _, f := range features {
		if enable[f.name] == nil {
			t.Fatalf("feature %q has no enabler in FuzzGossipSpec's words", f.name)
		}
		w := designBase
		bare, _, _ := w.spec()
		if f.inForce(bare) || f.inForce(bare.Normalize()) {
			t.Errorf("feature %q is in force on the base spec", f.name)
		}
		enable[f.name](&w)
		if on, _, _ := w.spec(); !f.inForce(on) {
			t.Errorf("feature %q is not in force after its enabler", f.name)
		}
	}
	if len(enable) != len(features) {
		t.Errorf("%d enablers for %d features", len(enable), len(features))
	}
	verdict := func(w specWords, protos ...Protocol) string {
		t.Helper()
		var got []string
		for _, p := range protos {
			w[wProto] = at(fuzzProtos, p)
			gs, proto, _ := w.spec()
			v := "✓"
			if gs.validate(proto) != nil {
				v = "refused"
			}
			got = append(got, v)
		}
		for _, v := range got[1:] {
			if v != got[0] {
				t.Errorf("one column, two verdicts: %v for %v", got, protos)
			}
		}
		return got[0]
	}
	row := func(cells ...string) string { return "| " + strings.Join(cells, " | ") + " |\n" }
	header := func(cols ...string) string {
		return "| " + row(cols...) + strings.Repeat("|---", len(cols)+1) + "|\n"
	}

	var pairs strings.Builder
	var names []string
	for _, f := range features {
		names = append(names, f.name)
	}
	pairs.WriteString(header(names...))
	for _, a := range features {
		cells := []string{"**" + a.name + "**"}
		for _, b := range features {
			if a == b {
				cells = append(cells, "—")
				continue
			}
			w := designBase
			enable[a.name](&w)
			enable[b.name](&w)
			cells = append(cells, verdict(w, 0, ProtocolUniformAG))
		}
		pairs.WriteString(row(cells...))
	}

	var protos strings.Builder
	protos.WriteString(header("uniform AG", "tree protocols", "uncoded"))
	for _, f := range features {
		w := designBase
		enable[f.name](&w)
		protos.WriteString(row("**"+f.name+"**",
			verdict(w, 0, ProtocolUniformAG),
			verdict(w, ProtocolTAGRR, ProtocolTAGUniform, ProtocolTAGIS),
			verdict(w, ProtocolUncoded)))
	}

	data, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "### What combines with what\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "What combines with what" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	for _, table := range []string{pairs.String(), protos.String()} {
		if !strings.Contains(section, table) {
			t.Errorf("DESIGN.md \"What combines with what\" does not hold this rendered table verbatim:\n%s", table)
		}
	}
}

// TestFieldOrderIsRefusedNotPanicked: a field order gf cannot build is an
// error naming the supported orders from every way into a trial — the
// screen, the grid expansion (so before a pool or a listener starts) and
// Execute — never the panic of gf.MustNew on a pool goroutine.
func TestFieldOrderIsRefusedNotPanicked(t *testing.T) {
	g := graph.Ring(8)
	for _, q := range []int{0, 1, 6, 9, 255, 300, -4} {
		wantErr := q != 0 // zero is "the default", GF(2)
		gs := GossipSpec{Graph: g, K: 4, Q: q}
		_, _, expandErr := (&Spec{Graphs: []*graph.Graph{g}, Ks: []int{4}, Q: q, Trials: 1}).Expand()
		_, execErr := Execute(gs, ProtocolUniformAG, 1)
		for via, err := range map[string]error{"validate": gs.validate(0), "Expand": expandErr, "Execute": execErr} {
			switch {
			case !wantErr && err != nil:
				t.Errorf("q=%d via %s: %v", q, via, err)
			case wantErr && (err == nil || !strings.Contains(err.Error(), "supported: 2, 4, 8")):
				t.Errorf("q=%d via %s: err = %v, want one naming the supported orders", q, via, err)
			}
		}
	}
}

// TestScreenOwnsGraphAndK: the nil-graph and k checks live in the screen,
// ahead of the generation-size check that used to answer for a bad k.
func TestScreenOwnsGraphAndK(t *testing.T) {
	if _, err := Execute(GossipSpec{K: 3}, 0, 1); err == nil || !strings.Contains(err.Error(), "nil graph") {
		t.Errorf("nil graph: %v", err)
	}
	s := Spec{Graph: "ring", Sizes: []int{8}, Ks: []int{-5}, Trials: 1}
	if _, _, err := s.Expand(); err == nil || !strings.Contains(err.Error(), "k must be positive, got -5") {
		t.Errorf("k=-5 through Expand: %v", err)
	}
}
