package harness

import (
	"bytes"
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
// ordered commit make the partitioning unobservable. The grid covers the
// dense/sparse/expander topologies, both matrix backends (GF(2) bitset,
// GF(256) bit-sliced), a dynamic-topology schedule, and generation mode
// alone, on the dynamic schedule and under loss.
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

// TestShardedValidation pins the rejection paths: sharded execution is
// uniform-AG + synchronous only.
func TestShardedValidation(t *testing.T) {
	g := graph.Complete(12)
	async := GossipSpec{Graph: g, K: 4, Shards: 2, Model: core.Asynchronous}
	if _, err := Execute(async, ProtocolUniformAG, 1); err == nil {
		t.Error("asynchronous sharded run accepted")
	}
	tagSpec := GossipSpec{Graph: g, K: 4, Shards: 2}
	if _, err := Execute(tagSpec, ProtocolTAGRR, 1); err == nil {
		t.Error("sharded TAG run accepted")
	}
}
