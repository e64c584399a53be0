package algossip_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"algossip"
	"algossip/internal/harness"
)

func TestRunAllProtocols(t *testing.T) {
	g := algossip.Barbell(16)
	protocols := []algossip.Protocol{
		algossip.ProtocolUniformAG,
		algossip.ProtocolTAGRR,
		algossip.ProtocolTAGUniform,
		algossip.ProtocolTAGIS,
		algossip.ProtocolUncoded,
	}
	for _, p := range protocols {
		res, err := algossip.Run(algossip.Spec{Graph: g, K: 8, Protocol: p}, 7)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if !res.Completed || res.Rounds <= 0 {
			t.Fatalf("%v: bad result %+v", p, res)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := algossip.Run(algossip.Spec{K: 3}, 1); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := algossip.Run(algossip.Spec{Graph: algossip.Line(4)}, 1); err == nil {
		t.Error("zero k accepted")
	}
	if _, err := algossip.Run(algossip.Spec{Graph: algossip.Line(4), K: 2, Protocol: 99}, 1); err == nil {
		t.Error("unknown protocol accepted")
	}
	// An order gf cannot build is an error to the caller, not a panic.
	for _, q := range []int{1, 6} {
		if _, err := algossip.Run(algossip.Spec{Graph: algossip.Line(4), K: 2, Q: q}, 1); err == nil ||
			!strings.Contains(err.Error(), "supported: 2, 4, 8") {
			t.Errorf("Q=%d: %v, want an error naming the supported orders", q, err)
		}
	}
	if _, err := algossip.Run(algossip.Spec{Graph: algossip.Line(4), K: 2, Protocol: algossip.ProtocolTAGRR, Action: algossip.Push}, 1); err == nil {
		t.Error("TAG x PUSH accepted")
	}
}

func TestRunDeterminism(t *testing.T) {
	spec := algossip.Spec{Graph: algossip.Grid(4, 4), K: 8, Protocol: algossip.ProtocolTAGRR}
	a, err := algossip.Run(spec, 123)
	if err != nil {
		t.Fatal(err)
	}
	b, err := algossip.Run(spec, 123)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds {
		t.Fatalf("same seed gave %d and %d rounds", a.Rounds, b.Rounds)
	}
}

func TestDisseminateEndToEnd(t *testing.T) {
	g := algossip.Ring(10)
	msgs := algossip.RandomMessages(5, 8, 3)
	decoded, res, err := algossip.Disseminate(g, msgs, nil, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("not completed")
	}
	for i := range msgs {
		for j := range msgs[i].Payload {
			if decoded[i].Payload[j] != msgs[i].Payload[j] {
				t.Fatalf("decode mismatch at message %d symbol %d", i, j)
			}
		}
	}
}

// TestDisseminateRefusesBadInput: caller input the protocol cannot seed is
// an error from Disseminate, not a panic inside it.
func TestDisseminateRefusesBadInput(t *testing.T) {
	g := algossip.Complete(8)
	short := algossip.RandomMessages(4, 16, 1)
	short[2].Payload = short[2].Payload[:8]
	if _, _, err := algossip.Disseminate(g, short, nil, 1); err == nil {
		t.Error("a payload shorter than the first was accepted")
	}
	if _, _, err := algossip.Disseminate(g, algossip.RandomMessages(4, 16, 1), []algossip.NodeID{0, 1, 2, 99}, 1); err == nil {
		t.Error("an assignment to node 99 of 8 was accepted")
	}
}

func TestSplitJoinThroughFacade(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog")
	msgs, err := algossip.SplitBytes(data, 6, 12)
	if err != nil {
		t.Fatal(err)
	}
	decoded, _, err := algossip.Disseminate(algossip.Complete(8), msgs, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := algossip.JoinBytes(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: %q", got)
	}
}

func TestParseProtocol(t *testing.T) {
	tests := []struct {
		in   string
		want algossip.Protocol
	}{
		{"ag", algossip.ProtocolUniformAG},
		{"tag", algossip.ProtocolTAGRR},
		{"tag-is", algossip.ProtocolTAGIS},
		{"tag-uniform", algossip.ProtocolTAGUniform},
		{"uncoded", algossip.ProtocolUncoded},
	}
	for _, tt := range tests {
		got, err := algossip.ParseProtocol(tt.in)
		if err != nil || got != tt.want {
			t.Errorf("ParseProtocol(%q) = %v, %v", tt.in, got, err)
		}
	}
	if _, err := algossip.ParseProtocol("nope"); err == nil {
		t.Error("unknown protocol string accepted")
	}
	if algossip.ProtocolTAGRR.String() != "tag-brr" {
		t.Error("String() wrong")
	}
}

func TestTopologyConstructorsExported(t *testing.T) {
	rng := algossip.NewRand(1)
	graphs := []*algossip.Graph{
		algossip.Line(5), algossip.Ring(5), algossip.Grid(2, 3),
		algossip.Torus(3, 3), algossip.Complete(5), algossip.Star(5),
		algossip.BinaryTree(7), algossip.KAryTree(7, 3), algossip.Barbell(6),
		algossip.Lollipop(4, 2), algossip.CliqueChain(2, 3), algossip.Hypercube(3),
		algossip.ErdosRenyi(10, 0.4, rng), algossip.RandomRegular(10, 3, rng),
	}
	for _, g := range graphs {
		if !g.IsConnected() {
			t.Errorf("%s not connected", g.Name())
		}
	}
}

func TestRunDetailedAgreesWithRun(t *testing.T) {
	for _, proto := range []algossip.Protocol{
		algossip.ProtocolUniformAG, algossip.ProtocolTAGRR, algossip.ProtocolUncoded,
	} {
		spec := algossip.Spec{Graph: algossip.Barbell(16), K: 8, Protocol: proto}
		plain, err := algossip.Run(spec, 77)
		if err != nil {
			t.Fatal(err)
		}
		detailed, det, err := algossip.RunDetailed(spec, 77)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Rounds != detailed.Rounds {
			t.Errorf("%v: Run=%d rounds, RunDetailed=%d", proto, plain.Rounds, detailed.Rounds)
		}
		if len(det.NodeDoneRounds) != 16 {
			t.Errorf("%v: NodeDoneRounds length %d", proto, len(det.NodeDoneRounds))
		}
		for v, r := range det.NodeDoneRounds {
			if r < 0 || r > detailed.Rounds {
				t.Errorf("%v: node %d done round %d outside [0,%d]", proto, v, r, detailed.Rounds)
			}
		}
		if det.Traffic.Sent == 0 || det.Traffic.Helpful == 0 {
			t.Errorf("%v: empty traffic counters %+v", proto, det.Traffic)
		}
		if det.MessageBits <= 0 {
			t.Errorf("%v: message bits %d", proto, det.MessageBits)
		}
	}
}

func TestRunDetailedTAGTreeRounds(t *testing.T) {
	spec := algossip.Spec{Graph: algossip.Line(20), K: 10, Protocol: algossip.ProtocolTAGRR}
	res, det, err := algossip.RunDetailed(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if det.TreeRounds < 0 || det.TreeRounds > res.Rounds {
		t.Fatalf("TreeRounds = %d outside [0,%d]", det.TreeRounds, res.Rounds)
	}
}

func TestRunDetailedValidation(t *testing.T) {
	if _, _, err := algossip.RunDetailed(algossip.Spec{K: 2}, 1); err == nil {
		t.Error("nil graph accepted")
	}
	if _, _, err := algossip.RunDetailed(algossip.Spec{Graph: algossip.Line(3)}, 1); err == nil {
		t.Error("zero k accepted")
	}
	if _, _, err := algossip.RunDetailed(algossip.Spec{Graph: algossip.Line(3), K: 2, Protocol: 99}, 1); err == nil {
		t.Error("unknown protocol accepted")
	}
}

// TestRunCopiesEverySpecField guards the root hop of the knob chain,
// algossip.Spec → harness.GossipSpec, which Run and RunDetailed each copy
// by hand: every Spec field but Protocol (Execute takes it as an
// argument) has a GossipSpec field of the same name and type, and with
// that one field moved off its default both return what harness.Execute
// returns for the GossipSpec with the same field moved. Each value is
// chosen to change the outcome, so a field the copy drops shows.
func TestRunCopiesEverySpecField(t *testing.T) {
	const seed = 11
	base := algossip.Spec{Graph: algossip.Barbell(12), K: 6}
	baseline, err := algossip.Run(base, seed)
	if err != nil {
		t.Fatal(err)
	}
	moved := map[string]any{
		"Graph":        algossip.Ring(9),
		"K":            4,
		"Protocol":     algossip.ProtocolTAGRR,
		"Model":        algossip.Asynchronous,
		"Q":            16,
		"Action":       algossip.Push,
		"SingleSource": true,
		"MaxRounds":    3,
	}
	st := reflect.TypeOf(base)
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		val, ok := moved[f.Name]
		if !ok {
			t.Errorf("Spec.%s has no non-default value here; add one to moved", f.Name)
			continue
		}
		spec, proto := base, base.Protocol
		gs := harness.GossipSpec{Graph: base.Graph, K: base.K}
		reflect.ValueOf(&spec).Elem().Field(i).Set(reflect.ValueOf(val))
		if f.Name == "Protocol" {
			proto = spec.Protocol
		} else {
			dst := reflect.ValueOf(&gs).Elem().FieldByName(f.Name)
			if !dst.IsValid() || dst.Type() != f.Type {
				t.Errorf("Spec.%s (%s) has no GossipSpec field of that name and type", f.Name, f.Type)
				continue
			}
			dst.Set(reflect.ValueOf(val))
		}
		// MaxRounds = 3 runs out of budget: Execute's error is part of what
		// Run must hand back.
		want, wantErr := harness.Execute(gs, proto, seed)
		if want.Result == baseline {
			t.Errorf("%s = %v does not change the outcome; the comparison below proves nothing", f.Name, val)
		}
		if got, err := algossip.Run(spec, seed); got != want.Result || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%s: Run = %+v, %v; Execute gives %+v, %v", f.Name, got, err, want.Result, wantErr)
		}
		if got, _, err := algossip.RunDetailed(spec, seed); got != want.Result || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%s: RunDetailed = %+v, %v; Execute gives %+v, %v", f.Name, got, err, want.Result, wantErr)
		}
	}
}
