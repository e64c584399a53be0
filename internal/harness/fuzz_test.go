package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"algossip/internal/core"
	"algossip/internal/graph"
	"algossip/internal/sim"
)

// FuzzReadCheckpoint throws arbitrary bytes at a resuming checkpoint open:
// a torn or corrupt JSONL file must never panic — it either resumes the
// valid prefix or reports an error. This is the recovery path a killed
// sweep depends on, so graceful degradation is load-bearing.
func FuzzReadCheckpoint(f *testing.F) {
	spec := &Spec{Name: "fuzz", Graph: "line", Sizes: []int{8}, Trials: 2, Seed: 5}
	_, trials, err := spec.Expand()
	if err != nil {
		f.Fatal(err)
	}
	total := len(trials)
	header := `{"v":1,"name":"fuzz","fingerprint":"` + spec.Fingerprint() + `","total":2}` + "\n"

	f.Add([]byte(header + `{"i":0,"o":{"result":{"Rounds":7,"Completed":true}}}` + "\n"))
	f.Add([]byte(header + `{"i":0,"o":{}}` + "\n" + `{"i":1,"o":{"result"`)) // torn tail
	f.Add([]byte(header + `{"i":99,"o":{}}` + "\n"))                         // out of range
	f.Add([]byte(`{"v":2,"fingerprint":"x","total":2}` + "\n"))              // wrong version
	f.Add([]byte("not json at all\n"))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xfe, 0x00, '\n', '{', '}'})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ck.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := OpenCheckpointFile(path, spec, total, true)
		if err != nil {
			return // rejecting corrupt input is fine; panicking is not
		}
		loaded := len(ck.Loaded())
		for i := range ck.Loaded() {
			if i < 0 || i >= total {
				t.Fatalf("accepted out-of-range trial index %d", i)
			}
		}
		// Whatever was kept is line-aligned: an entry appended after it
		// and everything before it survive a second resume.
		_, had := ck.Loaded()[0]
		if err := ck.Append(0, Outcome{}); err != nil {
			t.Fatal(err)
		}
		if err := ck.Close(); err != nil {
			t.Fatal(err)
		}
		ck, err = OpenCheckpointFile(path, spec, total, true)
		if err != nil {
			t.Fatalf("second resume rejected what the first accepted: %v", err)
		}
		defer ck.Close()
		want := loaded
		if !had {
			want++
		}
		if len(ck.Loaded()) != want {
			t.Fatalf("second resume replayed %d entries, want %d", len(ck.Loaded()), want)
		}
	})
}

// specWords is a decoded FuzzGossipSpec input: byte i picks word i of a
// GossipSpec from that word's table below (modulo its length), and a
// missing byte picks entry 0, the word's default. Each table holds valid
// and invalid values alike.
type specWords [nWords]uint8

const (
	wGraph = iota
	wK
	wProto
	wModel
	wQ
	wAction
	wSelector
	wSingle
	wPayload
	wLoss
	wGen
	wShards
	wDynKind
	wDynRate
	wDynPeriod
	wDynBurst
	wAdvKind
	wAdvFrac
	wAdvMode
	wClsKind
	wClsFrac
	wClsSlow
	wClsBoost
	wMaxRounds
	wSeed
	nWords
)

var (
	// The valid values are ones whose every combination completes within
	// fuzzMaxRounds[0], but for the known defect starves names. fuzzGraphs are small and 2-connected: the one
	// Byzantine node an adversary frac of 0.1 places on n ≤ 16 never cuts
	// the honest nodes apart. A churn rejoin restarts a node, and every
	// node must be complete at once, so churn's stopping time grows
	// without bound as its period shrinks, its rate or the loss rate
	// grows, or the generations multiply: the rates stop at 0.1, the
	// periods are the default (16) and 32, and the one generation size
	// splits k = 8 in two.
	fuzzGraphs    = []*graph.Graph{graph.Complete(16), graph.Ring(16), graph.Torus(4, 4), graph.Hypercube(3), ring3}
	ring3         = graph.Ring(3) // under grow's four-node floor
	fuzzKs        = []int{8, 4, 1, 0, -3}
	fuzzProtos    = []Protocol{0, ProtocolUniformAG, ProtocolTAGRR, ProtocolTAGUniform, ProtocolTAGIS, ProtocolUncoded, 42}
	fuzzModels    = []core.TimeModel{0, core.Synchronous, core.Asynchronous, 7}
	fuzzQs        = []int{0, 2, 16, 256, 3, 6, 300, -4}
	fuzzActions   = []core.Action{0, core.Push, core.Pull, core.Exchange, 9}
	fuzzSelectors = []SelectorKind{0, SelUniform, SelRoundRobin, 5}
	fuzzPayloads  = []int{0, 4, -3}
	fuzzRates     = []float64{0, 0.1, 1, 1.5, math.NaN(), -0.1}
	fuzzGens      = []int{0, 4, 9, -1}
	fuzzShards    = []int{0, 1, 2, 3, -1}
	fuzzDynKinds  = []string{"", "static", "edge", "burst", "rewire", "churn", "grow", "nosuch"}
	fuzzPeriods   = []int{0, 32, -3}
	fuzzBursts    = []int{0, 3, 32, -1}
	fuzzAdvKinds  = []string{"", "byzantine", "romulan"}
	fuzzAdvFracs  = []float64{0, 0.1, 1, 2, math.NaN(), -0.1}
	fuzzAdvModes  = []string{"", "pollute", "replay", "freeride", "mix", "nope"}
	fuzzClsKinds  = []string{"", "straggler", "tiered", "nope"}
	fuzzClsFracs  = []float64{0, 0.5, 1, 2, math.NaN(), -0.1}
	fuzzSlows     = []int{0, 2, 8, 1, -1}
	fuzzBoosts    = []int{0, 3, 1, -1}
	// fuzzMaxRounds is the finite budget, and budgets that cannot run.
	fuzzMaxRounds = []int{1 << 14, -5, -1}
)

// pick returns the table entry byte b selects.
func pick[T any](table []T, b uint8) T { return table[int(b)%len(table)] }

// at is the byte that picks v from table (NaN picks NaN).
func at[T comparable](table []T, v T) uint8 {
	for i, e := range table {
		if e == v || (v != v && e != e) {
			return uint8(i)
		}
	}
	panic(fmt.Sprintf("%v is in no fuzz table", v))
}

// spec decodes the words into a GossipSpec, its protocol and a seed. A
// declaration whose words are all at their defaults is nil.
func (w specWords) spec() (GossipSpec, Protocol, uint64) {
	gs := GossipSpec{
		Graph:        pick(fuzzGraphs, w[wGraph]),
		K:            pick(fuzzKs, w[wK]),
		Model:        pick(fuzzModels, w[wModel]),
		Q:            pick(fuzzQs, w[wQ]),
		Action:       pick(fuzzActions, w[wAction]),
		Selector:     pick(fuzzSelectors, w[wSelector]),
		SingleSource: w[wSingle]%2 == 1,
		PayloadLen:   pick(fuzzPayloads, w[wPayload]),
		LossRate:     pick(fuzzRates, w[wLoss]),
		GenSize:      pick(fuzzGens, w[wGen]),
		Shards:       pick(fuzzShards, w[wShards]),
		MaxRounds:    pick(fuzzMaxRounds, w[wMaxRounds]),
	}
	d := Dynamics{Kind: pick(fuzzDynKinds, w[wDynKind]), Rate: pick(fuzzRates, w[wDynRate]),
		Period: pick(fuzzPeriods, w[wDynPeriod]), Burst: pick(fuzzBursts, w[wDynBurst])}
	if d != (Dynamics{}) {
		gs.Dynamics = &d
	}
	a := Adversary{Kind: pick(fuzzAdvKinds, w[wAdvKind]), Frac: pick(fuzzAdvFracs, w[wAdvFrac]),
		Mode: pick(fuzzAdvModes, w[wAdvMode])}
	if a != (Adversary{}) {
		gs.Adversary = &a
	}
	c := Classes{Kind: pick(fuzzClsKinds, w[wClsKind]), Frac: pick(fuzzClsFracs, w[wClsFrac]),
		Slow: pick(fuzzSlows, w[wClsSlow]), Boost: pick(fuzzBoosts, w[wClsBoost])}
	if c != (Classes{}) {
		gs.Classes = &c
	}
	return gs, pick(fuzzProtos, w[wProto]), uint64(w[wSeed])
}

// gridSpec is the two-trial grid of gs's one cell, trial t on seed
// seed+t. PayloadLen is the one word a Spec does not carry.
func gridSpec(gs GossipSpec, proto Protocol, seed uint64) *Spec {
	return &Spec{
		Graphs: []*graph.Graph{gs.Graph}, Ks: []int{gs.K}, Protocol: proto,
		Model: gs.Model, Q: gs.Q, Action: gs.Action, Selector: gs.Selector,
		SingleSource: gs.SingleSource, LossRate: gs.LossRate, Dynamics: gs.Dynamics,
		GenSize: gs.GenSize, Shards: gs.Shards, Adversary: gs.Adversary,
		Classes: gs.Classes, MaxRounds: gs.MaxRounds, Trials: 2,
		TrialSeed: func(_, trial int) uint64 { return seed + uint64(trial) },
	}
}

// enable turns each feature of the refusal table on, by the name the
// table and DESIGN.md share.
var enable = map[string]func(*specWords){
	"generations": func(w *specWords) { w[wGen] = at(fuzzGens, 4) },
	"loss":        func(w *specWords) { w[wLoss] = at(fuzzRates, 0.1) },
	"dynamics": func(w *specWords) {
		w[wDynKind], w[wDynRate] = at(fuzzDynKinds, "edge"), at(fuzzRates, 0.1)
	},
	"adversary / classes": func(w *specWords) {
		w[wAdvKind], w[wAdvFrac] = at(fuzzAdvKinds, "byzantine"), at(fuzzAdvFracs, 0.1)
	},
	"shards":               func(w *specWords) { w[wShards] = at(fuzzShards, 2) },
	"payload":              func(w *specWords) { w[wPayload] = at(fuzzPayloads, 4) },
	"asynchronous":         func(w *specWords) { w[wModel] = at(fuzzModels, core.Asynchronous) },
	"action":               func(w *specWords) { w[wAction] = at(fuzzActions, core.Push) },
	"round-robin selector": func(w *specWords) { w[wSelector] = at(fuzzSelectors, SelRoundRobin) },
}

// designBase is the spec DESIGN.md's combination tables turn features
// on over: complete-16, k = 8, GF(16), uniform AG.
var designBase = specWords{wQ: at(fuzzQs, 16)}

// refusedSpecs must each be refused by the screen; every one is a seed of
// FuzzGossipSpec too.
var refusedSpecs = map[string]specWords{
	// A word out of its range.
	"protocol 42":        {wProto: at(fuzzProtos, 42)},
	"model 7":            {wModel: at(fuzzModels, 7)},
	"action 9":           {wAction: at(fuzzActions, 9)},
	"selector 5":         {wSelector: at(fuzzSelectors, 5)},
	"shards -1":          {wShards: at(fuzzShards, -1)},
	"payload -3":         {wPayload: at(fuzzPayloads, -3)},
	"max rounds -5":      {wMaxRounds: at(fuzzMaxRounds, -5)},
	"loss 1.5":           {wLoss: at(fuzzRates, 1.5)},
	"loss NaN":           {wLoss: at(fuzzRates, math.NaN())},
	"loss -0.1":          {wLoss: at(fuzzRates, -0.1)},
	"dynamics nosuch":    {wDynKind: at(fuzzDynKinds, "nosuch")},
	"edge rate 1.5":      {wDynKind: at(fuzzDynKinds, "edge"), wDynRate: at(fuzzRates, 1.5)},
	"edge rate NaN":      {wDynKind: at(fuzzDynKinds, "edge"), wDynRate: at(fuzzRates, math.NaN())},
	"burst = period":     {wDynKind: at(fuzzDynKinds, "burst"), wDynPeriod: at(fuzzPeriods, 32), wDynBurst: at(fuzzBursts, 32)},
	"churn period -3":    {wDynKind: at(fuzzDynKinds, "churn"), wDynPeriod: at(fuzzPeriods, -3)},
	"grow on 3 nodes":    {wGraph: at(fuzzGraphs, ring3), wDynKind: at(fuzzDynKinds, "grow")},
	"static rate 0.1":    {wDynKind: at(fuzzDynKinds, "static"), wDynRate: at(fuzzRates, 0.1)},
	"static period 32":   {wDynKind: at(fuzzDynKinds, "static"), wDynPeriod: at(fuzzPeriods, 32)},
	"static burst 3":     {wDynKind: at(fuzzDynKinds, "static"), wDynBurst: at(fuzzBursts, 3)},
	"adversary romulan":  {wAdvKind: at(fuzzAdvKinds, "romulan"), wAdvFrac: at(fuzzAdvFracs, 0.1)},
	"adversary frac NaN": {wAdvKind: at(fuzzAdvKinds, "byzantine"), wAdvFrac: at(fuzzAdvFracs, math.NaN())},
	"classes nope":       {wClsKind: at(fuzzClsKinds, "nope"), wClsFrac: at(fuzzClsFracs, 0.5)},
	"classes frac 2":     {wClsKind: at(fuzzClsKinds, "straggler"), wClsFrac: at(fuzzClsFracs, 2)},
	"classes frac NaN":   {wClsKind: at(fuzzClsKinds, "straggler"), wClsFrac: at(fuzzClsFracs, math.NaN())},
	// A combination refusedPairs or a feature's protocol list refuses.
	"tag × generations": {wProto: at(fuzzProtos, ProtocolTAGRR), wGen: at(fuzzGens, 4)},
	"tag-is × loss":     {wProto: at(fuzzProtos, ProtocolTAGIS), wLoss: at(fuzzRates, 0.1)},
	"tag × shards":      {wProto: at(fuzzProtos, ProtocolTAGRR), wShards: at(fuzzShards, 2)},
	"shards × async":    {wShards: at(fuzzShards, 2), wModel: at(fuzzModels, core.Asynchronous)},
	"adversary × shards": {wAdvKind: at(fuzzAdvKinds, "byzantine"), wAdvFrac: at(fuzzAdvFracs, 0.1),
		wShards: at(fuzzShards, 2)},
	"adversary × dynamics": {wAdvKind: at(fuzzAdvKinds, "byzantine"), wAdvFrac: at(fuzzAdvFracs, 0.1),
		wDynKind: at(fuzzDynKinds, "edge"), wDynRate: at(fuzzRates, 0.1)},
	"adversary × tag": {wAdvKind: at(fuzzAdvKinds, "byzantine"), wAdvFrac: at(fuzzAdvFracs, 0.1),
		wProto: at(fuzzProtos, ProtocolTAGRR)},
	"adversary × uncoded": {wAdvKind: at(fuzzAdvKinds, "byzantine"), wAdvFrac: at(fuzzAdvFracs, 0.1),
		wProto: at(fuzzProtos, ProtocolUncoded)},
}

// FuzzGossipSpec holds the screen to its promise over every word of a
// GossipSpec at n ≤ 16 and k ≤ 8, for every protocol:
//   - it never panics, and validate's verdict is Expand's;
//   - a refused spec never reaches a trial: Execute answers with the
//     screen's own error;
//   - the screen allocates nothing on an accepted spec (Execute runs it
//     per trial);
//   - an accepted spec completes with no error within a finite round
//     budget, and its outcome is byte-identical across shard counts 1
//     and 2, GOMAXPROCS 1 and 2 (the payload commit width reads it),
//     Runner parallelism 1 and 2, and a fresh or a reused worker state.
//
// The seeds are refusedSpecs (each checked refused here) and one spec per
// cell of DESIGN.md's two combination tables, so plain go test runs every
// cell the screen accepts to completion.
func FuzzGossipSpec(f *testing.F) {
	for _, name := range slices.Sorted(maps.Keys(refusedSpecs)) {
		w := refusedSpecs[name]
		if gs, proto, _ := w.spec(); gs.validate(proto) == nil {
			f.Errorf("%s: accepted", name)
		}
		f.Add(w[:])
	}
	for i, a := range features {
		for _, b := range features[i+1:] {
			w := designBase
			enable[a.name](&w)
			enable[b.name](&w)
			f.Add(w[:])
		}
		for p := ProtocolUniformAG; p <= ProtocolUncoded; p++ {
			w := designBase
			enable[a.name](&w)
			w[wProto] = at(fuzzProtos, p)
			f.Add(w[:])
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var w specWords
		copy(w[:], data)
		gs, proto, seed := w.spec()
		verdict := gs.validate(proto)
		carried := gs
		carried.PayloadLen = 0
		if _, _, err := gridSpec(gs, proto, seed).Expand(); (err == nil) != (carried.validate(proto) == nil) {
			t.Fatalf("validate: %v; Expand: %v", carried.validate(proto), err)
		}
		if verdict != nil {
			if _, err := Execute(gs, proto, seed); err == nil || err.Error() != verdict.Error() {
				t.Fatalf("validate refuses (%v), Execute answers %v", verdict, err)
			}
			return
		}
		if a := testing.AllocsPerRun(10, func() { _ = gs.validate(proto) }); a != 0 {
			t.Fatalf("validate allocates %v times on an accepted spec", a)
		}

		run := func(leg string, s GossipSpec, seed uint64, reuse bool) []byte {
			t.Helper()
			o, err := execute(s, proto, seed, reuse)
			switch {
			case err == nil && o.Result.Completed:
			case starves(s) && errors.Is(err, sim.ErrRoundLimit):
			default:
				t.Fatalf("%s: accepted spec did not complete: completed=%v err=%v", leg, o.Result.Completed, err)
			}
			return outcomeJSON(t, o)
		}
		want := run("fresh", gs, seed, false)
		same := func(leg string, got []byte) {
			t.Helper()
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: outcome %s\nwant %s", leg, got, want)
			}
		}
		for _, procs := range []int{1, 2} {
			prev := runtime.GOMAXPROCS(procs)
			got := run("GOMAXPROCS", gs, seed, false)
			runtime.GOMAXPROCS(prev)
			same(fmt.Sprintf("GOMAXPROCS %d", procs), got)
		}
		if gs.Shards > 0 {
			for _, shards := range []int{1, 2} {
				s := gs
				s.Shards = shards
				same(fmt.Sprintf("shards %d", shards), run("shards", s, seed, false))
			}
		}
		// A trial of another shape — one more message, at the same n —
		// leaves its protocol on the idle list first, with its shard core
		// when sharded, which a sharded trial of gs takes over. Whether
		// it completes within gs's round budget is no matter.
		other := gs
		other.K++
		_, _ = execute(other, proto, seed, true)
		next := run("reused state", gs, seed+1, true)
		same("reused state", run("reused state", gs, seed, true))
		if gs.PayloadLen > 0 || starves(gs) {
			return // a Spec cannot carry it, or a Runner stops at its round limit
		}
		for _, par := range []int{1, 2} {
			rs, err := Runner{Parallel: par}.Run(gridSpec(gs, proto, seed))
			if err != nil {
				t.Fatalf("parallel %d: %v", par, err)
			}
			same(fmt.Sprintf("parallel %d", par), outcomeJSON(t, rs.Outcomes[0]))
			if got := outcomeJSON(t, rs.Outcomes[1]); !bytes.Equal(got, next) {
				t.Fatalf("parallel %d, trial 1: outcome %s\nwant %s", par, got, next)
			}
		}
	})
}

// starves reports the regime of a known defect, in which a trial may never
// complete: a straggler serves one transmission per service period to
// whichever initiator asks first, a synchronous round wakes the nodes in
// ID order, and round-robin cursors move in lockstep, so the same node
// can ask second every round. FuzzGossipSpec holds such a trial to byte
// identity, not to completion.
func starves(gs GossipSpec) bool {
	return !gs.Classes.IsNone() && gs.Classes.Kind == "straggler" &&
		gs.Selector == SelRoundRobin && gs.Model != core.Asynchronous
}

func outcomeJSON(t *testing.T, o Outcome) []byte {
	t.Helper()
	b, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
