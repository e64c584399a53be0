package runtime

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"algossip/internal/core"
	"algossip/internal/gf"
	"algossip/internal/graph"
	"algossip/internal/rlnc"
)

// clusterModel is one communication model on the one node loop: the table
// below holds every feature against both, so a feature that works for one
// and not the other is refused for a reason the model gives, not because
// it lives in a different struct.
type clusterModel struct {
	name string
	new  func(tr Transport, g *graph.Graph, k int, opts ...Option) (*Cluster, error)
}

func clusterModels() []clusterModel {
	return []clusterModel{
		{"uniform", NewCluster},
		{"tree", func(tr Transport, g *graph.Graph, k int, opts ...Option) (*Cluster, error) {
			return NewTAGCluster(tr, g, 0, k, opts...)
		}},
	}
}

// doneLog is an Observer recording every completion callback.
type doneLog struct {
	mu    sync.Mutex
	ticks map[core.NodeID][]int
}

func (l *doneLog) NodeDone(v core.NodeID, tick int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ticks == nil {
		l.ticks = make(map[core.NodeID][]int)
	}
	l.ticks[v] = append(l.ticks[v], tick)
}

// waitFor polls cond until it holds; the deadline is the failure path.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	deadline := time.After(30 * time.Second)
	for !cond() {
		select {
		case <-tick.C:
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func allDone(cs ...*Cluster) bool {
	for _, c := range cs {
		for _, st := range c.Status() {
			if !st.Done {
				return false
			}
		}
	}
	return true
}

// validateTree checks a complete parent assignment against the graph.
func validateTree(t *testing.T, g *graph.Graph, tree *graph.Tree) {
	t.Helper()
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	for v, par := range tree.Parent {
		if par != core.NilNode && !g.HasEdge(core.NodeID(v), par) {
			t.Fatalf("tree edge (%d,%d) not in graph", v, par)
		}
	}
}

// TestClusterFeatureMatrix is DESIGN.md's "what combines with what, live"
// table, cell by cell.
func TestClusterFeatureMatrix(t *testing.T) {
	const k, r = 4, 4
	interval := WithInterval(200 * time.Microsecond)
	for _, model := range clusterModels() {
		t.Run(model.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			build := func(t *testing.T, g *graph.Graph, opts ...Option) *Cluster {
				t.Helper()
				tr := NewChanTransport()
				t.Cleanup(func() { _ = tr.Close() })
				c, err := model.new(tr, g, k, append(opts, WithPayload(r), interval, WithSeed(5))...)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}

			t.Run("WithObserver", func(t *testing.T) {
				g := graph.Grid(3, 3)
				log := &doneLog{}
				c := build(t, g, WithObserver(log))
				seedMessages(t, c, k, r, g.N())
				if done, err := c.Run(ctx); err != nil || done != g.N() {
					t.Fatalf("run: %d done, %v", done, err)
				}
				for _, st := range c.Status() {
					if got := log.ticks[st.ID]; len(got) != 1 || got[0] != st.DoneTick {
						t.Errorf("node %d: observer calls %v, want exactly [%d]", st.ID, got, st.DoneTick)
					}
				}
			})

			// WithControlPlane's two halves, one subtest each: the start
			// gate, then serving peers past local completion.
			t.Run("WithStartGate", func(t *testing.T) {
				g := graph.Grid(3, 3)
				tr := NewChanTransport()
				defer func() { _ = tr.Close() }()
				c, err := model.new(tr, g, g.N(), WithControlPlane(), interval)
				if err != nil {
					t.Fatal(err)
				}
				seedMessages(t, c, g.N(), 0, g.N()) // one message at every node, rank-only
				const probe = core.NodeID(99)
				replies, err := tr.Register(probe)
				if err != nil {
					t.Fatal(err)
				}
				runCtx, stop := context.WithCancel(ctx)
				defer stop()
				res := make(chan error, 1)
				go func() { _, err := c.Run(runCtx); res <- err }()
				// A gated node serves inbound traffic, so a reply from every
				// node proves every loop is up; none of them may have ticked.
				for v := 0; v < g.N(); v++ {
					ask := Envelope{Kind: EnvelopePacket, From: probe, WantReply: true}
					if err := tr.Send(ctx, core.NodeID(v), ask); err != nil {
						t.Fatal(err)
					}
					<-replies
				}
				for _, st := range c.Status() {
					if st.Ticks != 0 {
						t.Fatalf("node %d ticked %d times behind the start gate", st.ID, st.Ticks)
					}
				}
				c.Start()
				waitFor(t, "every node to complete", func() bool { return allDone(c) })
				stop()
				if err := <-res; err != nil {
					t.Fatal(err)
				}
			})

			t.Run("WithServeAfterDone", func(t *testing.T) {
				g := graph.Grid(3, 3)
				c := build(t, g, WithControlPlane())
				c.Start()
				seedMessages(t, c, k, r, g.N())
				runCtx, stop := context.WithCancel(ctx)
				defer stop()
				res := make(chan error, 1)
				go func() { _, err := c.Run(runCtx); res <- err }()
				waitFor(t, "every node to keep ticking past its completion", func() bool {
					for _, st := range c.Status() {
						if !st.Done || st.Ticks < st.DoneTick+5 {
							return false
						}
					}
					return true
				})
				stop()
				if err := <-res; err != nil {
					t.Fatalf("post-completion cancel was not a clean drain: %v", err)
				}
			})

			t.Run("WithLocalNodes", func(t *testing.T) {
				// Two processes' worth of cluster: disjoint halves of one
				// graph, each on its own TCP transport, routed by peer
				// declarations.
				g := graph.CliqueChain(2, 4)
				half := g.N() / 2
				var trs [2]*TCPTransport
				var cs [2]*Cluster
				for p := range cs {
					local := make([]core.NodeID, half)
					for i := range local {
						local[i] = core.NodeID(p*half + i)
					}
					trs[p] = NewTCPTransport()
					defer func() { _ = trs[p].Close() }()
					c, err := model.new(trs[p], g, k, WithLocalNodes(local...), WithControlPlane(),
						WithPayload(r), WithInterval(time.Millisecond), WithSeed(5))
					if err != nil {
						t.Fatal(err)
					}
					cs[p] = c
				}
				for v := 0; v < g.N(); v++ {
					addr, ok := trs[v/half].Addr(core.NodeID(v))
					if !ok {
						t.Fatalf("node %d has no address", v)
					}
					trs[1-v/half].AddPeer(core.NodeID(v), addr)
				}
				msgs := seedMessages(t, cs[0], k, r, half)
				runCtx, stop := context.WithCancel(ctx)
				defer stop()
				res := make(chan error, 2)
				for _, c := range cs {
					c.Start()
					go func() { _, err := c.Run(runCtx); res <- err }()
				}
				waitFor(t, "both halves to converge", func() bool { return allDone(cs[0], cs[1]) })
				stop()
				for range cs {
					if err := <-res; err != nil {
						t.Fatal(err)
					}
				}
				parent := make([]core.NodeID, g.N())
				for v := range parent {
					verifyNode(t, cs[v/half], core.NodeID(v), msgs)
					parent[v] = cs[v/half].Parent(core.NodeID(v))
					if _, ok := cs[v/half].Tree(); ok {
						t.Fatal("a cluster hosting half the graph reported a whole tree")
					}
				}
				if model.name == "tree" {
					validateTree(t, g, &graph.Tree{Root: 0, Parent: parent})
				}
			})

			t.Run("WithGenerations", func(t *testing.T) {
				g := graph.Grid(3, 3)
				c := build(t, g, WithGenerations(2))
				msgs := seedMessages(t, c, k, r, g.N())
				if done, err := c.Run(ctx); err != nil || done != g.N() {
					t.Fatalf("run: %d done, %v", done, err)
				}
				verifyDecode(t, c, msgs, g.N())
			})

			t.Run("Kill", func(t *testing.T) {
				// A leaf of the star holds nothing the rest needs and is
				// nobody's tree parent. Killed before Run, it never ticks.
				g := graph.Star(6)
				c := build(t, g)
				seedMessages(t, c, k, r, 1)
				victim := core.NodeID(g.N() - 1)
				c.Kill(victim)
				done, err := c.Run(ctx)
				if err != nil || done != g.N()-1 {
					t.Fatalf("run: %d done, %v; want %d survivors", done, err, g.N()-1)
				}
				for _, st := range c.Status() {
					if st.Done == (st.ID == victim) {
						t.Errorf("node %d: done=%v", st.ID, st.Done)
					}
				}
			})

			t.Run("ApplyTopology", func(t *testing.T) {
				c := build(t, graph.Ring(6))
				err := c.ApplyTopology(graph.Complete(6))
				switch {
				case model.name == "uniform" && err != nil:
					t.Fatal(err)
				case model.name == "tree" && (err == nil || !strings.Contains(err.Error(), "parent pointers are void on a new graph")):
					t.Fatalf("tree cluster: got %v, want the model's refusal", err)
				}
			})

			t.Run("NotLocal", func(t *testing.T) {
				c := build(t, graph.Ring(6), WithLocalNodes(0, 1, 2))
				for _, v := range []core.NodeID{4, 99, -1} {
					if c.Rank(v) != -1 || c.Parent(v) != core.NilNode {
						t.Errorf("node %d: rank %d parent %d, want -1 and NilNode", v, c.Rank(v), c.Parent(v))
					}
					if _, err := c.Decode(v); !errors.Is(err, ErrUnknownNode) {
						t.Errorf("Decode(%d): %v, want ErrUnknownNode", v, err)
					}
				}
			})
		})
	}
}

// TestClusterSeedScreens: a seed may come from a control-plane body, so a
// bad one is an error and the node stays usable — at the parent commit the
// wrong payload length panicked under the node lock.
func TestClusterSeedScreens(t *testing.T) {
	tr := NewChanTransport()
	defer func() { _ = tr.Close() }()
	c, err := NewCluster(tr, graph.Ring(3), 2, WithPayload(4), WithField(gf.MustNew(16)))
	if err != nil {
		t.Fatal(err)
	}
	for name, msg := range map[string]struct {
		index   int
		payload []byte
	}{
		"index below":  {-1, []byte{1, 2, 3, 4}},
		"index above":  {2, []byte{1, 2, 3, 4}},
		"short":        {0, []byte{1, 2}},
		"long":         {0, []byte{1, 2, 3, 4, 5}},
		"not a symbol": {0, []byte{1, 2, 16, 4}},
	} {
		if err := c.Seed(0, rlnc.Message{Index: msg.index, Payload: msg.payload}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := c.Seed(0, rlnc.Message{Index: 0, Payload: []byte{1, 2, 15, 4}}); err != nil {
		t.Fatal(err)
	}
	if got := c.Rank(0); got != 1 {
		t.Fatalf("rank %d after one good seed, want 1", got)
	}
}
