package runtime

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"algossip/internal/core"
	"algossip/internal/gf"
	"algossip/internal/graph"
	"algossip/internal/rlnc"
)

// TestChaosLatencyDelays: with a pure latency profile every envelope
// arrives, but not before its stamped deadline.
func TestChaosLatencyDelays(t *testing.T) {
	tr, err := NewChaosTransport(NewChanTransport(), ChaosConfig{Latency: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	inbox, err := tr.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := tr.Send(context.Background(), 1, sampleEnvelope()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-inbox:
		if el := time.Since(start); el < 25*time.Millisecond {
			t.Fatalf("envelope arrived after %v, before the 30ms latency floor", el)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delayed envelope never arrived")
	}
}

// TestChaosLatencyDoesNotCompound: deadlines stamp at arrival, so a burst
// of n envelopes through one inbox is delayed by one latency, not n.
func TestChaosLatencyDoesNotCompound(t *testing.T) {
	tr, err := NewChaosTransport(NewChanTransport(), ChaosConfig{Latency: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	inbox, err := tr.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	const burst = 20
	start := time.Now()
	for i := 0; i < burst; i++ {
		if err := tr.Send(context.Background(), 1, sampleEnvelope()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < burst; i++ {
		select {
		case <-inbox:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d burst envelopes arrived", i, burst)
		}
	}
	// Serial delays would take burst*50ms = 1s; stamped-at-arrival should
	// land the whole burst shortly after one latency.
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("burst of %d took %v — latency is compounding per envelope", burst, el)
	}
}

// TestChaosPartitionAndHeal: an interactive partition silently eats all
// traffic to its nodes, and Heal restores delivery.
func TestChaosPartitionAndHeal(t *testing.T) {
	tr, err := NewChaosTransport(NewChanTransport(), ChaosConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	inbox, err := tr.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetPartition([]core.NodeID{1})
	for i := 0; i < 5; i++ {
		if err := tr.Send(context.Background(), 1, sampleEnvelope()); err != nil {
			t.Fatalf("partitioned send surfaced an error: %v", err)
		}
	}
	select {
	case env := <-inbox:
		t.Fatalf("partitioned node received %+v", env)
	case <-time.After(50 * time.Millisecond):
	}
	if got := tr.Cut(); got != 5 {
		t.Fatalf("Cut() = %d, want 5", got)
	}
	if s := tr.Stats(); s.Total.Dropped != 5 || s.Total.Sent != 0 {
		t.Fatalf("stats = %+v, want 5 dropped / 0 sent", s.Total)
	}

	tr.Heal()
	if err := tr.Send(context.Background(), 1, sampleEnvelope()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-inbox:
	case <-time.After(5 * time.Second):
		t.Fatal("envelope never arrived after Heal")
	}
}

// TestChaosCorruptionIsStructural: at rate 1 every delivered envelope has
// a coefficient or payload length that differs from the original — the
// exact property the receiver's width screens reject on — and the
// sender's copy is never mutated.
func TestChaosCorruptionIsStructural(t *testing.T) {
	tr, err := NewChaosTransport(NewChanTransport(), ChaosConfig{CorruptRate: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	inbox, err := tr.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	orig := sampleEnvelope()
	wantCoeffs, wantPay := len(orig.Coeffs), len(orig.Payload)
	const sends = 50
	for i := 0; i < sends; i++ {
		if err := tr.Send(context.Background(), 1, orig); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-inbox:
			if len(got.Coeffs) == wantCoeffs && len(got.Payload) == wantPay {
				t.Fatalf("send %d: corrupted envelope kept its shape (%d coeffs, %d payload)",
					i, len(got.Coeffs), len(got.Payload))
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("send %d never arrived", i)
		}
		if len(orig.Coeffs) != wantCoeffs || len(orig.Payload) != wantPay {
			t.Fatal("corruption mutated the caller's envelope")
		}
	}
	if got := tr.Corrupted(); got != sends {
		t.Fatalf("Corrupted() = %d, want %d", got, sends)
	}
}

// TestCorruptedFramesNeverHelp: whatever corruptEnvelope does to a frame,
// no decoder accepts it — rank-only or payload, whole-k or generations, on
// the vector tiers' byte rows and the scalar tier's bit-sliced ones. The
// sender holds everything and each receiver nothing, so the same frame
// uncorrupted always helps: the control counts that, and the four arms
// must leave the rank at 0.
func TestCorruptedFramesNeverHelp(t *testing.T) {
	host := gf.ActiveTier()
	defer func() { _ = gf.SetTier(host) }()
	const k = 6
	for _, tier := range []gf.Tier{host, gf.TierScalar} {
		for _, q := range []int{2, 16, 256} {
			for _, payload := range []int{0, 5} {
				for _, genSize := range []int{0, 3} {
					cfg := Config{Field: gf.MustNew(q), K: k, PayloadLen: payload, GenSize: genSize}
					// The decoder's row layout is chosen from the tier at
					// construction.
					if err := gf.SetTier(tier); err != nil {
						t.Fatal(err)
					}
					sender, err := cfg.newDecoder()
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("tier=%v/q=%d/payload=%d/gen=%d", tier, q, payload, genSize)
					rng := core.NewRand(uint64(q + payload))
					for i := 0; i < k; i++ {
						msg := rlnc.Message{Index: i}
						if payload > 0 {
							msg.Payload = gf.RandBytes(cfg.Field, payload, rng)
						}
						sender.Seed(msg)
					}
					helped := 0
					for trial := 0; trial < 40; trial++ {
						var env Envelope
						if !emit(sender, rng, &rlnc.GenPacket{}, &env) {
							t.Fatalf("%s: full-rank sender emitted nothing", name)
						}
						for arm := uint64(0); arm < 5; arm++ {
							recv, err := cfg.newDecoder()
							if err != nil {
								t.Fatal(err)
							}
							frame := env
							if arm < 4 {
								frame = corruptEnvelope(env, arm)
							} else { // the control: ingest clobbers, so it gets a copy too
								frame.Coeffs = append([]gf.Elem(nil), env.Coeffs...)
								frame.Payload = append([]byte(nil), env.Payload...)
							}
							ingest(recv, &rlnc.GenPacket{Packet: &rlnc.Packet{}}, &frame)
							switch rank := recv.Rank(); {
							case arm < 4 && rank != 0:
								t.Fatalf("%s: corruption arm %d was accepted (rank %d): coeffs %d, payload %d symbols",
									name, arm, rank, len(frame.Coeffs), len(frame.Payload))
							case arm == 4:
								helped += rank
							}
						}
					}
					if helped == 0 {
						t.Fatalf("%s: the uncorrupted control never helped; the test proves nothing", name)
					}
				}
			}
		}
	}
}

// TestChaosSetLatencyMidRun: the latency profile is hot-swappable — the
// daemon's /chaos endpoint relies on this taking effect immediately for
// envelopes stamped after the call.
func TestChaosSetLatencyMidRun(t *testing.T) {
	tr, err := NewChaosTransport(NewChanTransport(), ChaosConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	inbox, err := tr.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetLatency(40*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := tr.Send(context.Background(), 1, sampleEnvelope()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-inbox:
		if el := time.Since(start); el < 35*time.Millisecond {
			t.Fatalf("envelope arrived after %v despite the 40ms hot-set latency", el)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("envelope never arrived")
	}
	if err := tr.SetLatency(-1, 0); err == nil {
		t.Fatal("negative latency accepted")
	}
	if err := tr.SetCorruptRate(1.5); err == nil {
		t.Fatal("corrupt rate > 1 accepted")
	}
	if err := tr.SetCorruptRate(math.NaN()); err == nil {
		t.Fatal("corrupt rate NaN accepted")
	}
}

// TestChaosConfigValidation: constructor rejects out-of-range knobs.
func TestChaosConfigValidation(t *testing.T) {
	for _, cfg := range []ChaosConfig{
		{CorruptRate: -0.1},
		{CorruptRate: 1.1},
		{CorruptRate: math.NaN()},
		{DropRate: 1},
		{DropRate: math.NaN()},
		{Latency: -time.Second},
		{Jitter: -time.Second},
	} {
		if _, err := NewChaosTransport(NewChanTransport(), cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// TestChaosClusterConverges: a full runtime cluster converges and decodes
// through a chaos layer injecting latency, jitter and frame corruption —
// corrupt frames die at the rlnc width screens, latency only dilates time.
func TestChaosClusterConverges(t *testing.T) {
	g := graph.Grid(3, 3)
	const k, r = 4, 4
	tr, err := NewChaosTransport(NewChanTransport(), ChaosConfig{
		Latency:     time.Millisecond,
		Jitter:      2 * time.Millisecond,
		CorruptRate: 0.2,
		Seed:        9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	c, err := NewCluster(tr, g, k, WithPayload(r), WithInterval(200*time.Microsecond), WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	msgs := seedMessages(t, c, k, r, g.N())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if done != g.N() {
		t.Fatalf("completed %d/%d under chaos", done, g.N())
	}
	verifyDecode(t, c, msgs, g.N())
	if tr.Corrupted() == 0 {
		t.Fatal("chaos layer corrupted nothing at rate 0.2")
	}
}
