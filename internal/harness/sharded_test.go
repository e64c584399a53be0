package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"algossip/internal/core"
	"algossip/internal/graph"
)

// TestShardedSerialIdentity pins the sharded determinism contract: for a
// fixed (GossipSpec, seed), the full Outcome — stopping time, per-node
// completion rounds, and traffic counters — is byte-identical for every
// positive shard count. The shard count partitions the wake phase across
// goroutines, but per-node RNG streams, fixed staging slots, and the
// per-receiver commit make the partitioning unobservable. The grid covers
// the dense/sparse/expander topologies, GF(2) (bitset backend) and
// GF(256) (byte rows or bit-sliced, by kernel tier), a dynamic-topology
// schedule, and generation mode alone, on the dynamic schedule and under
// loss. Every graph here fits one bitmap word, which the engine never
// splits: these rows pin the semantics, TestShardedMultiWordIdentity the
// concurrency.
func TestShardedSerialIdentity(t *testing.T) {
	mk := func(gname string, n, k, q int) GossipSpec {
		g, err := graph.FromName(gname, n, core.NewRand(core.SplitSeed(7, 999)))
		if err != nil {
			t.Fatal(err)
		}
		return GossipSpec{Graph: g, K: k, Q: q}
	}
	dyn, err := ParseDynamics("edge:rate=0.2")
	if err != nil {
		t.Fatal(err)
	}
	dynSpec := mk("ring", 32, 8, 2)
	dynSpec.Dynamics = dyn
	genSpec := mk("randreg", 32, 12, 256)
	genSpec.GenSize = 4
	genDynSpec, genLossSpec := genSpec, genSpec
	genDynSpec.Dynamics = dyn
	genLossSpec.LossRate = 0.1

	rows := []struct {
		name string
		spec GossipSpec
	}{
		{"complete/q2", mk("complete", 24, 12, 2)},
		{"complete/q256", mk("complete", 24, 12, 256)},
		{"ring/q2", mk("ring", 32, 8, 2)},
		{"ring/q256", mk("ring", 32, 8, 256)},
		{"randreg/q2", mk("randreg", 32, 10, 2)},
		{"randreg/q256", mk("randreg", 32, 10, 256)},
		{"ring/q2/dynamic", dynSpec},
		{"randreg/q256/generations", genSpec},
		{"randreg/q256/generations/dynamic", genDynSpec},
		{"randreg/q256/generations/loss", genLossSpec},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var want []byte
			for _, shards := range []int{1, 2, 8} {
				spec := row.spec
				spec.Shards = shards
				o, err := Execute(spec, ProtocolUniformAG, 42)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if !o.Result.Completed {
					t.Fatalf("shards=%d: run did not complete (%d rounds)", shards, o.Result.Rounds)
				}
				got, err := json.Marshal(o)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
					continue
				}
				if !bytes.Equal(got, want) {
					t.Errorf("shards=%d outcome diverged from shards=1:\n got %s\nwant %s", shards, got, want)
				}
			}
		})
	}
}

// TestShardedMultiWordIdentity is TestShardedSerialIdentity where it
// counts: n ≥ 256 spans at least four bitmap words, so shard counts 2, 3
// and 7 (a non-divisor of every word count here) really run concurrent
// WakeShard goroutines and a partitioned commit — the rows above fit one
// word and stay on the engine's goroutine. Rows cover what the commit's
// receiver partition and deferred retirement can get wrong: every action,
// k=1 (a node leaves rank 0 *and* fills in one round, set-then-clear),
// single-source seeding (most of the graph starts dormant), loss
// (counter-only slots), GF(256), generations, a partial last word,
// dynamic schedules (retirement off; churn resets completed nodes), and
// payloads: the last three rows are the only place two WakeShard
// goroutines emit payload rows from one source at once (GF(2) packed
// bits; GF(256) byte rows on a vector tier, bit-sliced on the scalar one).
//
// Cross-shard identity alone would not catch a wrong equivalence argument
// — shards=1 runs the same deferred-retirement epilogue — so each row
// also carries the sha256 (first 8 bytes) of its marshalled Outcome as
// produced by the serial, interleaved-retirement commit of commit fe96955,
// the last one that had it; the payload rows were recorded at 5758f21,
// which still serialized the emits from one source with a per-node lock.
// A mismatch means the trajectory moved.
func TestShardedMultiWordIdentity(t *testing.T) {
	dynamics := func(s string) *Dynamics {
		d, err := ParseDynamics(s)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	rows := []struct {
		name, graph string
		n           int
		spec        GossipSpec
		golden      string
	}{
		{"randreg/exchange", "randreg", 256, GossipSpec{K: 8}, "b03b74e23217ff82"},
		{"randreg/k1", "randreg", 256, GossipSpec{K: 1}, "add4738357d7ba56"},
		{"randreg/loss", "randreg", 300, GossipSpec{K: 8, LossRate: 0.2}, "fb53c4a7b0201afd"},
		{"randreg/q256", "randreg", 320, GossipSpec{K: 10, Q: 256}, "0b003c4988476006"},
		{"randreg/generations", "randreg", 512, GossipSpec{K: 12, Q: 256, GenSize: 4, SingleSource: true}, "b3268001659e549e"},
		{"randreg/churn", "randreg", 256, GossipSpec{K: 8, Dynamics: dynamics("churn:rate=0.1,period=16")}, "aa38e60cfeb0d72d"},
		{"ring/push/k1", "ring", 256, GossipSpec{K: 1, Action: core.Push}, "980ca9312131b512"},
		{"ring/pull/single-source", "ring", 256, GossipSpec{K: 4, Action: core.Pull, SingleSource: true}, "4758a345e49ca25f"},
		{"ring/edge-failures", "ring", 256, GossipSpec{K: 8, Dynamics: dynamics("edge:rate=0.2")}, "7de7f31d32466078"},
		{"grid/pull", "grid", 324, GossipSpec{K: 8, Action: core.Pull}, "f171ca10b4d70a1b"},
		{"grid/generations/loss", "grid", 400, GossipSpec{K: 12, GenSize: 3, LossRate: 0.2, SingleSource: true}, "3dbf7703cf6e4e61"},
		{"barbell/exchange", "barbell", 256, GossipSpec{K: 4}, "f3fb8565b91f95a8"},
		{"barbell/push/single-source", "barbell", 256, GossipSpec{K: 2, Action: core.Push, SingleSource: true}, "19500da203dff383"},
		{"randreg/payload", "randreg", 256, GossipSpec{K: 8, PayloadLen: 32}, "e5d46bfc8d48884c"},
		{"randreg/q256/payload", "randreg", 320, GossipSpec{K: 10, Q: 256, PayloadLen: 64}, "b956241ee26b554c"},
		{"randreg/generations/payload", "randreg", 512, GossipSpec{K: 12, Q: 256, GenSize: 4, PayloadLen: 64, SingleSource: true}, "fb303919663f4f5a"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			g, err := graph.FromName(row.graph, row.n, core.NewRand(core.SplitSeed(7, 999)))
			if err != nil {
				t.Fatal(err)
			}
			if g.N() < 256 {
				t.Fatalf("n=%d fits fewer than four bitmap words", g.N())
			}
			var want []byte
			for _, shards := range []int{1, 2, 3, 7} {
				spec := row.spec
				spec.Graph, spec.Shards = g, shards
				o, err := Execute(spec, ProtocolUniformAG, 42)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				// By-waker attribution of counter-only slots must lose none.
				if tr := o.Traffic; tr.Sent != tr.Helpful+tr.Useless+tr.Dropped {
					t.Errorf("shards=%d: sent %d != helpful %d + useless %d + dropped %d",
						shards, tr.Sent, tr.Helpful, tr.Useless, tr.Dropped)
				}
				if spec.LossRate > 0 && o.Traffic.Dropped == 0 {
					t.Errorf("shards=%d: loss %v dropped nothing", shards, spec.LossRate)
				}
				got, err := json.Marshal(o)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
					sum := sha256.Sum256(got)
					if digest := hex.EncodeToString(sum[:8]); digest != row.golden {
						t.Errorf("outcome digest %s, want %s (the parent's serial commit): the trajectory moved", digest, row.golden)
					}
					continue
				}
				if !bytes.Equal(got, want) {
					t.Errorf("shards=%d outcome diverged from shards=1:\n got %s\nwant %s", shards, got, want)
				}
			}
		})
	}
}

// doneLog records the NodeDone sequence of one run.
type doneLog struct{ events [][2]int }

func (l *doneLog) NodeDone(v core.NodeID, round int) {
	l.events = append(l.events, [2]int{int(v), round})
}

// TestShardedObserverSequence pins the serial epilogue of the commit: the
// observer must see the same (node, round) NodeDone sequence — order
// included, which is slot order within a round — whether one goroutine
// or four committed the round.
func TestShardedObserverSequence(t *testing.T) {
	g, err := graph.FromName("randreg", 512, core.NewRand(core.SplitSeed(7, 999)))
	if err != nil {
		t.Fatal(err)
	}
	run := func(shards int) [][2]int {
		log := &doneLog{}
		spec := GossipSpec{Graph: g, K: 6, LossRate: 0.1, Shards: shards, Observer: log}
		if _, err := Execute(spec, ProtocolUniformAG, 42); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return log.events
	}
	want, got := run(1), run(4)
	if len(want) != g.N() {
		t.Fatalf("shards=1 reported %d completions for %d nodes", len(want), g.N())
	}
	if len(got) != len(want) {
		t.Fatalf("shards=4 reported %d completions, shards=1 %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NodeDone #%d: shards=4 saw (node %d, round %d), shards=1 (node %d, round %d)",
				i, got[i][0], got[i][1], want[i][0], want[i][1])
		}
	}
}
