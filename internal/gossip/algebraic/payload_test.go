package algebraic

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"
	"testing"

	"algossip/internal/core"
	"algossip/internal/gf"
	"algossip/internal/gossip"
	"algossip/internal/graph"
	"algossip/internal/rlnc"
	"algossip/internal/sim"
)

// payloadRun is one payload-carrying trial, n = 16, k = 12, r = 100 (a
// fused 64-byte block and a tail), built the way algossip.Disseminate
// builds its protocol.
type payloadRun struct {
	name     string
	graph    string // "randreg" or "barbell"
	q        int
	genSize  int
	action   core.Action
	loss     float64
	model    core.TimeModel
	churn    bool
	pollute  bool // three polluting Byzantine senders; the seeds sit with the honest nodes
	rankOnly bool // no payloads: nothing to decode, and the digest is empty

	// Recorded from the commit before the payload path was reordered
	// (coefficient-first elimination, deferred fills, the cache-ordered
	// commit): per-node completion rounds, the traffic counters, and a
	// SHA-256 over every node's decoded messages in node order.
	doneRounds string
	traffic    gossip.Traffic
	decoded    string
}

var payloadRuns = []payloadRun{
	{name: "randreg/gf256/exchange", graph: "randreg", q: 256,
		doneRounds: "[6 7 6 7 9 6 5 7 7 6 6 6 6 6 5 6]",
		traffic:    gossip.Traffic{Sent: 312, Helpful: 180, Useless: 132},
		decoded:    "149aa41255752956"},
	{name: "barbell/gf256/exchange", graph: "barbell", q: 256,
		doneRounds: "[8 7 7 6 6 6 7 6 16 18 18 19 18 19 17 17]",
		traffic:    gossip.Traffic{Sent: 632, Helpful: 180, Useless: 452},
		decoded:    "149aa41255752956"},
	{name: "randreg/gf16/exchange", graph: "randreg", q: 16,
		doneRounds: "[6 5 7 6 7 7 7 7 6 7 6 5 5 8 8 7]",
		traffic:    gossip.Traffic{Sent: 280, Helpful: 180, Useless: 100},
		decoded:    "29ae0c94dc89fcc5"},
	{name: "barbell/gf16/push", graph: "barbell", q: 16, action: core.Push,
		doneRounds: "[23 25 25 25 24 26 28 21 37 43 39 39 42 40 38 41]",
		traffic:    gossip.Traffic{Sent: 697, Helpful: 180, Useless: 517},
		decoded:    "29ae0c94dc89fcc5"},
	{name: "randreg/gf256/push/loss", graph: "randreg", q: 256, action: core.Push, loss: 0.2,
		doneRounds: "[11 12 18 23 10 12 12 19 17 16 15 12 15 11 17 18]",
		traffic:    gossip.Traffic{Sent: 379, Helpful: 180, Useless: 125, Dropped: 74},
		decoded:    "149aa41255752956"},
	{name: "barbell/gf256/exchange/loss", graph: "barbell", q: 256, loss: 0.2,
		doneRounds: "[11 12 11 13 12 11 11 9 30 32 33 32 34 35 32 31]",
		traffic:    gossip.Traffic{Sent: 1143, Helpful: 180, Useless: 727, Dropped: 236},
		decoded:    "149aa41255752956"},
	{name: "randreg/gf256/async", graph: "randreg", q: 256, model: core.Asynchronous,
		doneRounds: "[5 9 4 7 7 5 5 4 7 4 7 5 5 7 7 5]",
		traffic:    gossip.Traffic{Sent: 304, Helpful: 180, Useless: 124},
		decoded:    "149aa41255752956"},
	{name: "randreg/gf256/churn", graph: "randreg", q: 256, churn: true,
		doneRounds: "[128 198 197 209 187 199 173 201 202 151 210 194 189 204 174 174]",
		traffic:    gossip.Traffic{Sent: 5533, Helpful: 1366, Useless: 4167},
		decoded:    "149aa41255752956"},
	{name: "randreg/gf16/gen4/loss", graph: "randreg", q: 16, genSize: 4, loss: 0.2,
		doneRounds: "[12 14 19 14 21 18 13 10 17 11 16 12 11 16 15 15]",
		traffic:    gossip.Traffic{Sent: 693, Helpful: 180, Useless: 362, Dropped: 151},
		decoded:    "29ae0c94dc89fcc5"},
}

// payloadTrial is what a payload run leaves behind: per-node completion
// rounds, the traffic, every NodeDone the observer heard in order, and a
// digest of every node's decoded messages.
type payloadTrial struct {
	doneRounds string
	traffic    gossip.Traffic
	heard      string
	decoded    string
}

// heardLog is an observer that writes down each NodeDone as "node@round"
// and notes the first one that breaks receiver order: a lower node than
// the previous one, done in the same round.
type heardLog struct {
	strings.Builder
	last       [2]int // node, round of the previous NodeDone
	outOfOrder string
}

func (h *heardLog) NodeDone(v core.NodeID, round int) {
	if h.Len() > 0 && round == h.last[1] && int(v) < h.last[0] && h.outOfOrder == "" {
		h.outOfOrder = fmt.Sprintf("node %d after node %d in round %d", v, h.last[0], round)
	}
	h.last = [2]int{int(v), round}
	fmt.Fprintf(h, "%d@%d ", v, round)
}

// run plays tc to completion, n = 16, k = 12, r = 100, seed 7. A positive
// width runs every commit pass of a synchronous payload round on that
// many workers wherever a round has that many groups, however few bytes
// it streams; zero leaves the host's rule.
func (tc payloadRun) run(t *testing.T, width int) payloadTrial {
	t.Helper()
	got, _ := tc.runOn(t, width, nil)
	return got
}

// runOn is run on the state of prev, a finished protocol Renew may take
// over (nil: none), and returns the protocol it ran too.
func (tc payloadRun) runOn(t *testing.T, width int, prev *Protocol) (payloadTrial, *Protocol) {
	t.Helper()
	const n, k, r, seed = 16, 12, 100, 7
	g := graph.Barbell(n)
	if tc.graph == "randreg" {
		g = graph.RandomRegular(n, 4, core.NewRand(core.SplitSeed(seed, 3)))
	}
	if tc.model == 0 {
		tc.model = core.Synchronous
	}
	cfg := Config{RLNC: rlnc.Config{Field: gf.MustNew(tc.q), K: k, PayloadLen: r, RankOnly: tc.rankOnly},
		GenSize: tc.genSize, Action: tc.action, LossRate: tc.loss}
	assign := RoundRobinAssign(k, n)
	if tc.pollute {
		cfg.Traits = makeTraits(n, 3, NodeTraits{Behavior: Pollute})
		assign = RoundRobinAssignOver(k, HonestNodes(cfg.Traits))
	}
	msgs := RandomMessages(cfg.RLNC, core.NewRand(core.SplitSeed(seed, 11)))
	p, err := Renew(prev, g, tc.model, sim.NewUniform(g), cfg, core.NewRand(core.SplitSeed(seed, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if width > 0 && p.fill != nil {
		p.fill.procs, p.fill.grain = width, 0
	}
	heard := &heardLog{}
	p.SetObserver(heard)
	if err := p.SeedAll(assign, msgs); err != nil {
		t.Fatal(err)
	}
	var dyn graph.Dynamic = graph.Static(g)
	if tc.churn {
		dyn = graph.NewChurn(g, 0.2, 4, core.SplitSeed(seed, 4))
	}
	if _, err := sim.NewDynamic(dyn, tc.model, p, core.SplitSeed(seed, 2)).Run(); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for v := 0; v < n && !tc.rankOnly; v++ {
		got, err := p.Node(core.NodeID(v)).Decode()
		if err != nil {
			t.Fatalf("node %d: %v", v, err)
		}
		for i, m := range got {
			if m.Index != i || !bytes.Equal(m.Payload, msgs[i].Payload) {
				t.Fatalf("node %d decoded message %d wrong", v, i)
			}
			h.Write(m.Payload)
		}
	}
	if heard.outOfOrder != "" && tc.model == core.Synchronous && !tc.rankOnly {
		t.Errorf("NodeDone out of receiver order: %s", heard.outOfOrder)
	}
	return payloadTrial{
		doneRounds: fmt.Sprint(p.DoneRounds()),
		traffic:    p.Traffic(),
		heard:      heard.String(),
		decoded:    fmt.Sprintf("%x", h.Sum(nil)[:8]),
	}, p
}

// TestPayloadTrajectoryPinned holds the payload path to the trajectory
// and the bytes it produced before its reads were reordered: nothing
// about when a payload row is streamed — coefficients eliminated first,
// fills deferred to the round's end and grouped by sender, deliveries
// grouped by receiver — may move a completion round, a counter or a
// decoded byte. Every row runs on whichever backend the active tier picks
// (CI's forced scalar leg runs the sliced one); the pins are the same.
func TestPayloadTrajectoryPinned(t *testing.T) {
	for _, tc := range payloadRuns {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run(t, 0)
			if got.doneRounds != tc.doneRounds || got.traffic != tc.traffic || got.decoded != tc.decoded {
				t.Errorf("trajectory moved:\n\t\tdoneRounds: %q,\n\t\ttraffic:    %#v,\n\t\tdecoded:    %q},",
					got.doneRounds, got.traffic, got.decoded)
			}
		})
	}
}

// TestCommitWidthChangesNothing runs the pinned payload runs, a run with
// polluting Byzantine senders and a lossy PUSH run with generations with
// every commit pass split over 1, 2, 3 and 8 workers: completion rounds,
// traffic, the observer's NodeDone sequence — in receiver order within a
// synchronous round — and the decoded bytes must be those of one worker.
// On the sliced backend (CI's forced scalar leg) no packet waits for a
// fill and only the delivery pass has work to split.
func TestCommitWidthChangesNothing(t *testing.T) {
	runs := append(slices.Clone(payloadRuns),
		payloadRun{name: "randreg/gf256/exchange/pollute", graph: "randreg", q: 256, pollute: true},
		payloadRun{name: "barbell/gf256/push/gen3/loss", graph: "barbell", q: 256, action: core.Push, genSize: 3, loss: 0.3})
	for _, tc := range runs {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.run(t, 1)
			for _, w := range []int{2, 3, 8} {
				if got := tc.run(t, w); got != want {
					t.Errorf("width %d:\n%+v\nwidth 1:\n%+v", w, got, want)
				}
			}
		})
	}
}

// TestRenewMatchesNew: a protocol built by Renew over a finished one runs
// exactly as one built by New — completion rounds, traffic, the
// observer's NodeDone sequence and every node's decoded bytes — whatever
// the finished one ran. The pinned payload runs, a Byzantine one, and
// rank-only, GF(2) packed, prime-field and generation-coded runs go
// twice through one chain of protocols, each taking over the last: same
// shapes reuse (every node decoded, so every reused decoder was solved in
// place first), other shapes or a changed model do not, and both must
// hold. Under -race every Reset poisons what it keeps (0xA5), so a
// reused arena read before it is written changes a trajectory here.
func TestRenewMatchesNew(t *testing.T) {
	runs := append(slices.Clone(payloadRuns),
		payloadRun{name: "randreg/gf256/exchange/pollute", graph: "randreg", q: 256, pollute: true},
		payloadRun{name: "barbell/gf2/exchange", graph: "barbell", q: 2},
		payloadRun{name: "randreg/gf2/rank-only", graph: "randreg", q: 2, rankOnly: true},
		payloadRun{name: "randreg/gf256/rank-only/gen5", graph: "randreg", q: 256, rankOnly: true, genSize: 5},
		payloadRun{name: "barbell/gf7/exchange", graph: "barbell", q: 7},
		payloadRun{name: "barbell/gf7/async", graph: "barbell", q: 7, model: core.Asynchronous},
		payloadRun{name: "barbell/gf256/push/gen3/loss", graph: "barbell", q: 256, action: core.Push, genSize: 3, loss: 0.3})
	// n, k and r are the same for every run: the shape is the rest.
	shape := func(tc payloadRun) [3]int {
		genSize := tc.genSize
		if genSize == 0 {
			genSize = 12
		}
		r := 100
		if tc.rankOnly {
			r = 0
		}
		return [3]int{tc.q, genSize, r}
	}
	var prev *Protocol
	var last payloadRun
	for pass := range 2 {
		for i, tc := range runs {
			want := tc.run(t, 0)
			var before *rlnc.GenNode
			if prev != nil {
				before = prev.Node(0)
			}
			got, p := tc.runOn(t, 0, prev)
			if reused, fits := p.Node(0) == before, (pass > 0 || i > 0) && shape(tc) == shape(last); reused != fits {
				t.Errorf("pass %d, %s after %s: decoders reused %v, same shape %v", pass, tc.name, last.name, reused, fits)
			}
			prev, last = p, tc
			if got != want {
				t.Errorf("pass %d, %s: over the last run's protocol\n%+v\nnew\n%+v", pass, tc.name, got, want)
			}
		}
	}
}

// TestCommitKeepsReceiverOrder: two senders stage to one receiver in
// descending sender order, holding the same one-dimensional space — the
// first packet delivered is stored, the second is useless, so which row
// the receiver ends up with is the order it saw them in. The cache-ordered
// commit must leave the row the staging-order walk leaves (the same
// protocol with the deferral switched off), which the receiver's next
// emit shows. Grouping the fills by permuting the staged list itself, and
// then grouping that stably by receiver, delivers node 1's packet first
// and fails here.
func TestCommitKeepsReceiverOrder(t *testing.T) {
	const k, r = 2, 80
	cfg := Config{RLNC: rlnc.Config{Field: gf.MustNew(256), K: k, PayloadLen: r}}
	msg := rlnc.Message{Index: 0, Payload: gf.RandBytes(cfg.RLNC.Field, r, core.NewRand(2))}
	emitAfterRound := func(deferFill bool) (*Protocol, *rlnc.GenPacket) {
		g := graph.Complete(3)
		p, err := New(g, core.Synchronous, sim.NewUniform(g), cfg, core.NewRand(1))
		if err != nil {
			t.Fatal(err)
		}
		if p.fill == nil {
			t.Fatal("a synchronous protocol with payloads does not defer its fills")
		}
		if !deferFill {
			p.fill = nil
		}
		p.Seed(1, msg)
		p.Seed(2, msg)
		p.BeginRound(0)
		p.send(2, 0)
		p.send(1, 0)
		// The wake only draws: a packet that awaits its fill has no
		// coefficients yet, so it shows the factors recorded for it.
		drawn := func(d delivery) string {
			if d.fac.len > 0 {
				return fmt.Sprint(p.fill.slab[d.fac.off : d.fac.off+d.fac.len])
			}
			return fmt.Sprint(d.pkt.Packet.ExpandCoeffs(k))
		}
		if drawn(p.staged[0]) == drawn(p.staged[1]) {
			t.Fatal("the two senders drew the same factor; the order would not show")
		}
		p.EndRound(0)
		out := &rlnc.GenPacket{}
		if !p.nodes[0].EmitInto(core.NewRand(9), out) {
			t.Fatal("receiver stored nothing")
		}
		return p, out
	}
	got, gotPkt := emitAfterRound(true)
	want, wantPkt := emitAfterRound(false)
	if got.Traffic() != want.Traffic() || got.Traffic().Helpful != 1 || got.Traffic().Useless != 1 {
		t.Fatalf("traffic %+v, staging-order walk %+v; want one helpful, one useless", got.Traffic(), want.Traffic())
	}
	a := fmt.Sprint(gotPkt.Packet.ExpandCoeffs(k), gotPkt.Packet.ExpandPayload(r))
	b := fmt.Sprint(wantPkt.Packet.ExpandCoeffs(k), wantPkt.Packet.ExpandPayload(r))
	if a != b {
		t.Fatalf("receiver stored a different row than the staging-order walk:\n%s\n%s", a, b)
	}
}
