package runtime

import (
	"context"
	"testing"
	"time"

	"algossip/internal/core"
	"algossip/internal/gf"
	"algossip/internal/graph"
	"algossip/internal/rlnc"
)

func TestTAGClusterChanTransport(t *testing.T) {
	g := graph.Barbell(10)
	const k, r = 5, 6
	tr := NewChanTransport()
	defer func() { _ = tr.Close() }()
	c, err := NewTAGCluster(tr, g, 0, k, WithPayload(r), WithInterval(200*time.Microsecond), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	rng := core.NewRand(55)
	field := gf.MustNew(256)
	msgs := make([]rlnc.Message, k)
	for i := range msgs {
		msgs[i] = rlnc.Message{Index: i, Payload: gf.RandBytes(field, r, rng)}
		if err := c.Seed(core.NodeID(i), msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if done != g.N() {
		t.Fatalf("completed %d/%d", done, g.N())
	}
	// Spanning tree must be complete and valid, with edges in the graph.
	tree, ok := c.Tree()
	if !ok {
		t.Fatal("tree incomplete after all nodes decoded")
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	for v, par := range tree.Parent {
		if par != core.NilNode && !g.HasEdge(core.NodeID(v), par) {
			t.Fatalf("tree edge (%d,%d) not in graph", v, par)
		}
	}
	// All nodes decode all messages.
	for v := 0; v < g.N(); v++ {
		got, err := c.Decode(core.NodeID(v))
		if err != nil {
			t.Fatalf("node %d: %v", v, err)
		}
		for i := range msgs {
			for j := range msgs[i].Payload {
				if got[i].Payload[j] != msgs[i].Payload[j] {
					t.Fatalf("node %d message %d mismatch", v, i)
				}
			}
		}
	}
}

func TestTAGClusterTCP(t *testing.T) {
	g := graph.CliqueChain(2, 4)
	const k, r = 4, 4
	tr := NewTCPTransport()
	defer func() { _ = tr.Close() }()
	c, err := NewTAGCluster(tr, g, 0, k, WithPayload(r), WithInterval(500*time.Microsecond), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	rng := core.NewRand(7)
	field := gf.MustNew(256)
	for i := 0; i < k; i++ {
		if err := c.Seed(core.NodeID(i), rlnc.Message{Index: i, Payload: gf.RandBytes(field, r, rng)}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := c.Run(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestTAGClusterValidation(t *testing.T) {
	tr := NewChanTransport()
	defer func() { _ = tr.Close() }()
	if _, err := NewTAGCluster(tr, nil, 0, 2, WithPayload(2)); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := NewTAGCluster(tr, graph.Line(3), 5, 2, WithPayload(2)); err == nil {
		t.Error("out-of-range origin accepted")
	}
	if _, err := NewTAGCluster(tr, graph.Line(3), core.NilNode, 2, WithPayload(2)); err == nil {
		t.Error("NilNode origin accepted")
	}
}

func TestTAGClusterParentAccessors(t *testing.T) {
	g := graph.Line(3)
	tr := NewChanTransport()
	defer func() { _ = tr.Close() }()
	c, err := NewTAGCluster(tr, g, 1, 2, WithPayload(2), WithInterval(time.Hour), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if c.Parent(0) != core.NilNode || c.Parent(1) != core.NilNode {
		t.Fatal("parents must start unset")
	}
	if _, ok := c.Tree(); ok {
		t.Fatal("tree must be incomplete initially")
	}
	if c.Rank(0) != 0 {
		t.Fatal("rank must start 0")
	}
}

// TestClusterUnderPacketLoss is the failure-injection test: 30% of all
// envelopes are dropped, and the coded cluster still completes (network
// coding needs no retransmission protocol — every surviving packet is
// equally useful).
func TestClusterUnderPacketLoss(t *testing.T) {
	g := graph.Grid(3, 3)
	const k, r = 4, 4
	base := NewChanTransport()
	lossy, err := NewLossyTransport(base, 0.3, 99)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = lossy.Close() }()
	c, err := NewCluster(lossy, g, k, WithPayload(r), WithInterval(200*time.Microsecond), WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	rng := core.NewRand(3)
	field := gf.MustNew(256)
	for i := 0; i < k; i++ {
		if err := c.Seed(core.NodeID(i), rlnc.Message{Index: i, Payload: gf.RandBytes(field, r, rng)}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if done != g.N() {
		t.Fatalf("completed %d/%d under loss", done, g.N())
	}
	s := lossy.Stats()
	if s.Total.Dropped == 0 {
		t.Error("loss injection did not drop anything")
	}
	ratio := float64(s.Total.Dropped) / float64(s.Total.Sent+s.Total.Dropped)
	if ratio < 0.2 || ratio > 0.4 {
		t.Errorf("drop ratio %.2f, want ~0.3", ratio)
	}
}

func TestLossyTransportValidation(t *testing.T) {
	if _, err := NewLossyTransport(NewChanTransport(), 1.0, 1); err == nil {
		t.Error("rate 1.0 accepted")
	}
	if _, err := NewLossyTransport(NewChanTransport(), -0.1, 1); err == nil {
		t.Error("negative rate accepted")
	}
}
