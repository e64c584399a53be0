package runtime

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"algossip/internal/core"
	"algossip/internal/gf"
	"algossip/internal/graph"
)

// transportCase builds a fresh instance of one Transport implementation.
// Every implementation shipped by the package must pass the whole
// conformance suite below (run race-enabled in CI).
type transportCase struct {
	name string
	new  func(t *testing.T) Transport
}

func transportCases() []transportCase {
	return []transportCase{
		{"chan", func(t *testing.T) Transport { return NewChanTransport() }},
		{"tcp", func(t *testing.T) Transport { return NewTCPTransport() }},
		{"udp", func(t *testing.T) Transport {
			tr, err := NewUDPTransport()
			if err != nil {
				t.Fatalf("udp transport: %v", err)
			}
			return tr
		}},
		{"lossy", func(t *testing.T) Transport {
			// Rate 0 exercises the constructor's plumbing deterministically;
			// drop injection itself is covered by TestClusterConformance.
			tr, err := NewLossyTransport(NewChanTransport(), 0, 7)
			if err != nil {
				t.Fatalf("lossy transport: %v", err)
			}
			return tr
		}},
		{"chaos", func(t *testing.T) Transport {
			// Latency+jitter exercise the delay pipe under every contract
			// check; CorruptRate stays 0 because DeliveryFidelity expects
			// byte-identical envelopes (corruption is covered by the chaos
			// unit tests).
			tr, err := NewChaosTransport(NewChanTransport(), ChaosConfig{
				Latency: time.Millisecond, Jitter: time.Millisecond, Seed: 11,
			})
			if err != nil {
				t.Fatalf("chaos transport: %v", err)
			}
			return tr
		}},
	}
}

// sampleEnvelope exercises every Envelope field through the transport.
func sampleEnvelope() Envelope {
	return Envelope{
		Kind:      EnvelopePacket,
		From:      3,
		WantReply: true,
		Gen:       2,
		Coeffs:    []gf.Elem{1, 0, 7, 255},
		Payload:   []byte("conformance"),
	}
}

func envelopesEqual(a, b Envelope) bool {
	if a.Kind != b.Kind || a.From != b.From || a.WantReply != b.WantReply ||
		a.Gen != b.Gen || len(a.Coeffs) != len(b.Coeffs) || len(a.Payload) != len(b.Payload) {
		return false
	}
	for i := range a.Coeffs {
		if a.Coeffs[i] != b.Coeffs[i] {
			return false
		}
	}
	for i := range a.Payload {
		if a.Payload[i] != b.Payload[i] {
			return false
		}
	}
	return true
}

// TestTransportConformance runs every Transport implementation through the
// same contract checks: registration rules, delivery fidelity, typed
// errors, close ordering, and concurrent-send safety.
func TestTransportConformance(t *testing.T) {
	for _, tc := range transportCases() {
		t.Run(tc.name, func(t *testing.T) {
			t.Run("RegisterTwiceFails", func(t *testing.T) {
				tr := tc.new(t)
				defer func() { _ = tr.Close() }()
				if _, err := tr.Register(0); err != nil {
					t.Fatalf("first register: %v", err)
				}
				if _, err := tr.Register(0); err == nil {
					t.Fatal("second register of node 0 succeeded")
				}
			})

			t.Run("SendUnknownNode", func(t *testing.T) {
				tr := tc.new(t)
				defer func() { _ = tr.Close() }()
				err := tr.Send(context.Background(), 42, sampleEnvelope())
				if !errors.Is(err, ErrUnknownNode) {
					t.Fatalf("send to unknown node: got %v, want ErrUnknownNode", err)
				}
			})

			t.Run("SendCanceledContext", func(t *testing.T) {
				tr := tc.new(t)
				defer func() { _ = tr.Close() }()
				if _, err := tr.Register(0); err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				if err := tr.Send(ctx, 0, sampleEnvelope()); !errors.Is(err, context.Canceled) {
					t.Fatalf("send on canceled ctx: got %v, want context.Canceled", err)
				}
			})

			t.Run("DeliveryFidelity", func(t *testing.T) {
				tr := tc.new(t)
				defer func() { _ = tr.Close() }()
				inbox, err := tr.Register(1)
				if err != nil {
					t.Fatal(err)
				}
				want := sampleEnvelope()
				// Send is allowed to be asynchronous (TCP enqueues); retry
				// until the envelope lands or the deadline passes.
				deadline := time.After(10 * time.Second)
				tick := time.NewTicker(20 * time.Millisecond)
				defer tick.Stop()
				if err := tr.Send(context.Background(), 1, want); err != nil {
					t.Fatalf("send: %v", err)
				}
				for {
					select {
					case got := <-inbox:
						if !envelopesEqual(got, want) {
							t.Fatalf("delivered envelope %+v != sent %+v", got, want)
						}
						return
					case <-tick.C:
						_ = tr.Send(context.Background(), 1, want)
					case <-deadline:
						t.Fatal("envelope never delivered")
					}
				}
			})

			t.Run("NoCrossDelivery", func(t *testing.T) {
				tr := tc.new(t)
				defer func() { _ = tr.Close() }()
				inbox1, err := tr.Register(1)
				if err != nil {
					t.Fatal(err)
				}
				inbox2, err := tr.Register(2)
				if err != nil {
					t.Fatal(err)
				}
				if err := tr.Send(context.Background(), 1, sampleEnvelope()); err != nil {
					t.Fatalf("send: %v", err)
				}
				select {
				case <-inbox1:
				case <-time.After(10 * time.Second):
					t.Fatal("envelope never delivered")
				}
				select {
				case env := <-inbox2:
					t.Fatalf("node 2 received an envelope addressed to node 1: %+v", env)
				default:
				}
			})

			t.Run("ConcurrentSends", func(t *testing.T) {
				tr := tc.new(t)
				inbox, err := tr.Register(0)
				if err != nil {
					t.Fatal(err)
				}
				var delivered int
				drained := make(chan struct{})
				go func() {
					defer close(drained)
					for range inbox {
						delivered++
					}
				}()
				const goroutines, perG = 8, 50
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						env := sampleEnvelope()
						env.From = core.NodeID(g)
						for i := 0; i < perG; i++ {
							err := tr.Send(context.Background(), 0, env)
							if err != nil && !errors.Is(err, ErrBackpressure) {
								t.Errorf("concurrent send: %v", err)
								return
							}
						}
					}(g)
				}
				wg.Wait()
				// Give asynchronous transports a moment to flush in-flight
				// frames, then close (which closes the inbox and ends the
				// drainer).
				time.Sleep(50 * time.Millisecond)
				if err := tr.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
				<-drained
				if delivered == 0 {
					t.Fatal("no envelope survived the concurrent burst")
				}
				s := tr.Stats()
				if s.Total.Sent == 0 {
					t.Fatal("Stats counted no sends")
				}
				if s.Total.Sent+s.Total.Dropped < uint64(delivered) {
					t.Fatalf("Stats account for %d envelopes, but %d were delivered",
						s.Total.Sent+s.Total.Dropped, delivered)
				}
			})

			t.Run("SendAfterClose", func(t *testing.T) {
				tr := tc.new(t)
				if _, err := tr.Register(0); err != nil {
					t.Fatal(err)
				}
				if err := tr.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
				err := tr.Send(context.Background(), 0, sampleEnvelope())
				if !errors.Is(err, ErrTransportClosed) {
					t.Fatalf("send after close: got %v, want ErrTransportClosed", err)
				}
			})

			t.Run("RegisterAfterClose", func(t *testing.T) {
				tr := tc.new(t)
				if err := tr.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
				if _, err := tr.Register(0); !errors.Is(err, ErrTransportClosed) {
					t.Fatalf("register after close: got %v, want ErrTransportClosed", err)
				}
			})

			t.Run("CloseIdempotent", func(t *testing.T) {
				tr := tc.new(t)
				if _, err := tr.Register(0); err != nil {
					t.Fatal(err)
				}
				if err := tr.Close(); err != nil {
					t.Fatalf("first close: %v", err)
				}
				if err := tr.Close(); err != nil {
					t.Fatalf("second close: %v", err)
				}
			})
		})
	}
}

// TestClusterConformance runs both communication models over every
// transport of the matrix above, plus the chaos layer dropping a fifth of
// all envelopes: each must converge, decode the seeded bytes at every
// node, and (tree model) leave a valid spanning tree of the graph.
func TestClusterConformance(t *testing.T) {
	const k, r = 4, 4
	g := graph.CliqueChain(2, 4)
	cases := append(transportCases(), transportCase{"drop", func(t *testing.T) Transport {
		tr, err := NewChaosTransport(NewChanTransport(), ChaosConfig{DropRate: 0.2, Seed: 5})
		if err != nil {
			t.Fatalf("chaos transport: %v", err)
		}
		return tr
	}})
	for _, tc := range cases {
		for _, model := range clusterModels() {
			t.Run(tc.name+"/"+model.name, func(t *testing.T) {
				tr := tc.new(t)
				defer func() { _ = tr.Close() }()
				c, err := model.new(tr, g, k, WithPayload(r), WithInterval(500*time.Microsecond), WithSeed(6))
				if err != nil {
					t.Fatal(err)
				}
				msgs := seedMessages(t, c, k, r, g.N())
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				if done, err := c.Run(ctx); err != nil || done != g.N() {
					t.Fatalf("run: %d/%d done, %v", done, g.N(), err)
				}
				verifyDecode(t, c, msgs, g.N())
				tree, ok := c.Tree()
				if ok != (model.name == "tree") {
					t.Fatalf("Tree() ok = %v on the %s model", ok, model.name)
				}
				if ok {
					validateTree(t, g, tree)
				}
			})
		}
	}
}
