package harness

import (
	"math"
	"os"
	"strings"
	"testing"

	"algossip/internal/core"
	"algossip/internal/graph"
)

// enable turns each feature of the refusal table on, by the name the
// table and DESIGN.md share.
var enable = map[string]func(*GossipSpec){
	"generations":          func(s *GossipSpec) { s.GenSize = 4 },
	"loss":                 func(s *GossipSpec) { s.LossRate = 0.1 },
	"dynamics":             func(s *GossipSpec) { s.Dynamics = &Dynamics{Kind: "edge", Rate: 0.1} },
	"adversary / classes":  func(s *GossipSpec) { s.Adversary = &Adversary{Kind: "byzantine", Frac: 0.1} },
	"shards":               func(s *GossipSpec) { s.Shards = 2 },
	"payload":              func(s *GossipSpec) { s.PayloadLen = 4 },
	"asynchronous":         func(s *GossipSpec) { s.Model = core.Asynchronous },
	"action":               func(s *GossipSpec) { s.Action = core.Push },
	"round-robin selector": func(s *GossipSpec) { s.Selector = SelRoundRobin },
}

// designTables returns the markdown tables of DESIGN.md's "What combines
// with what" section: per table, the header cells and the body rows.
func designTables(t *testing.T) [][][]string {
	t.Helper()
	data, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "### What combines with what\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "What combines with what" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var tables [][][]string
	inTable := false
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			inTable = false
			continue
		}
		if strings.HasPrefix(line, "|---") {
			continue
		}
		var cells []string
		for _, c := range strings.Split(strings.Trim(line, "|"), "|") {
			cells = append(cells, strings.Trim(strings.TrimSpace(c), "*"))
		}
		if !inTable {
			tables = append(tables, nil)
			inTable = true
		}
		tables[len(tables)-1] = append(tables[len(tables)-1], cells)
	}
	return tables
}

// TestDesignCombinationTable checks DESIGN.md's two tables against the
// refusal table cell by cell: a ✓ cell runs to completion through
// Execute, a "refused" cell is an error from validate, and neither side
// names a feature the other lacks.
func TestDesignCombinationTable(t *testing.T) {
	tables := designTables(t)
	if len(tables) != 2 {
		t.Fatalf("DESIGN.md section has %d tables, want the feature×feature and feature×protocol ones", len(tables))
	}
	for _, f := range features {
		if enable[f.name] == nil {
			t.Errorf("feature %q has no enabler in this test", f.name)
		}
		on := GossipSpec{K: 8}
		if f.inForce(on) || f.inForce(on.Normalize()) {
			t.Errorf("feature %q is in force on a bare spec", f.name)
		}
		enable[f.name](&on)
		if !f.inForce(on) {
			t.Errorf("feature %q is not in force after its enabler", f.name)
		}
	}
	check := func(label, cell string, spec GossipSpec, proto Protocol) {
		t.Helper()
		switch {
		case strings.HasPrefix(cell, "✓"):
			if o, err := Execute(spec, proto, 1); err != nil || !o.Result.Completed {
				t.Errorf("%s: DESIGN.md says ✓, Execute: completed=%v err=%v", label, o.Result.Completed, err)
			}
		case strings.HasPrefix(cell, "refused"):
			if err := spec.validate(proto); err == nil {
				t.Errorf("%s: DESIGN.md says refused, validate accepts it", label)
			}
		default:
			t.Errorf("%s: unreadable cell %q", label, cell)
		}
	}
	base := GossipSpec{Graph: graph.Complete(16), K: 8, Q: 16}

	pairs, documented := tables[0], map[string]bool{}
	for _, col := range pairs[0][1:] {
		documented[col] = true
	}
	for _, f := range features {
		if !documented[f.name] {
			t.Errorf("feature %q is missing from DESIGN.md's feature table", f.name)
		}
	}
	for _, row := range pairs[1:] {
		for c, cell := range row[1:] {
			a, b := row[0], pairs[0][c+1]
			if enable[a] == nil || enable[b] == nil {
				t.Fatalf("DESIGN.md names a feature the refusal table lacks: %q × %q", a, b)
			}
			if a == b {
				continue
			}
			spec := base
			enable[a](&spec)
			enable[b](&spec)
			check(a+" × "+b, cell, spec, ProtocolUniformAG)
		}
	}

	columns := map[string][]Protocol{
		"uniform AG":     {0, ProtocolUniformAG},
		"tree protocols": {ProtocolTAGRR, ProtocolTAGUniform, ProtocolTAGIS},
		"uncoded":        {ProtocolUncoded},
	}
	protos := tables[1]
	if len(protos)-1 != len(features) {
		t.Errorf("DESIGN.md's protocol table has %d rows for %d features", len(protos)-1, len(features))
	}
	for _, row := range protos[1:] {
		for c, cell := range row[1:] {
			col := protos[0][c+1]
			if enable[row[0]] == nil || columns[col] == nil {
				t.Fatalf("DESIGN.md's protocol table names %q × %q, unknown here", row[0], col)
			}
			for _, proto := range columns[col] {
				spec := base
				enable[row[0]](&spec)
				check(row[0]+" × "+proto.String(), cell, spec, proto)
			}
		}
	}
}

// TestExpandRefusesBeforeAnyTrial: a refused combination is reported by
// Expand, so a sweep fails before its pool starts rather than inside the
// first trial.
func TestExpandRefusesBeforeAnyTrial(t *testing.T) {
	for name, s := range map[string]Spec{
		"tag x generations": {Graph: "ring", Sizes: []int{16}, Protocol: ProtocolTAGRR, GenSize: 4, Trials: 1},
		"tag x loss":        {Graph: "ring", Sizes: []int{16}, Protocol: ProtocolTAGIS, LossRate: 0.1, Trials: 1},
		"shards x async":    {Graph: "ring", Sizes: []int{16}, Shards: 2, Model: core.Asynchronous, Trials: 1},
		"adversary x shards": {Graph: "ring", Sizes: []int{16}, Shards: 2, Trials: 1,
			Adversary: &Adversary{Kind: "byzantine", Frac: 0.1}},
		"bad classes": {Graph: "ring", Sizes: []int{16}, Trials: 1, Classes: &Classes{Kind: "nope", Frac: 0.5}},
		"loss 1.5":    {Graph: "ring", Sizes: []int{16}, LossRate: 1.5, Trials: 1},
		"loss NaN":    {Graph: "ring", Sizes: []int{16}, LossRate: math.NaN(), Trials: 1},
		"loss -0.1":   {Graph: "ring", Sizes: []int{16}, LossRate: -0.1, Trials: 1},
		"adversary frac NaN": {Graph: "ring", Sizes: []int{16}, Trials: 1,
			Adversary: &Adversary{Kind: "byzantine", Frac: math.NaN()}},
		"classes frac NaN": {Graph: "ring", Sizes: []int{16}, Trials: 1,
			Classes: &Classes{Kind: "straggler", Frac: math.NaN()}},
	} {
		if _, _, err := s.Expand(); err == nil {
			t.Errorf("%s: Expand accepted it", name)
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
