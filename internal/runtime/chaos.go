package runtime

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"algossip/internal/core"
	"algossip/internal/gf"
)

// ChaosConfig sets the initial degradation injected by a ChaosTransport.
// Every knob can also be changed mid-run through the Set* methods (the
// daemon's /chaos endpoint does exactly that).
type ChaosConfig struct {
	// DropRate drops each envelope independently with this probability in
	// [0, 1) before anything else happens to it — i.i.d. packet loss.
	// Every surviving combination is still helpful with probability at
	// least 1-1/q, so loss only dilates time.
	DropRate float64
	// Latency delays every delivered envelope by at least this much.
	Latency time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter).
	Jitter time.Duration
	// CorruptRate structurally corrupts each envelope independently with
	// this probability in [0, 1]: a coefficient or payload symbol is
	// truncated or appended, so the frame stays decodable as a frame but
	// the packet fails the receiver's width screen — the transport-level
	// analogue of a polluting relay.
	CorruptRate float64
	// Seed roots the drop, jitter and corruption randomness.
	Seed uint64
}

// delayed is one envelope in flight through the latency stage, stamped
// with its delivery deadline at arrival so queuing never compounds delay.
type delayed struct {
	env Envelope
	due time.Time
}

// ChaosTransport wraps another Transport with controllable degradation:
// i.i.d. drops, per-envelope latency with jitter, interactive partitions,
// and structural frame corruption. It is the one failure-injection layer,
// for validating that coded gossip converges when the network misbehaves —
// loss and latency only dilate time, partitions heal, and corrupt packets
// die at the receiver's screens.
//
// Partition semantics: the transport sees only the destination of a Send,
// so a partition isolates its nodes on the inbound side — everything
// addressed to a partitioned node is dropped (counted, reported as
// success, like a real cut). A symmetric cut across processes is obtained
// by installing the same partition on every process's chaos layer, which
// is what gossipctl's partition orchestration does.
type ChaosTransport struct {
	inner Transport

	mu      sync.Mutex
	rng     *rand.Rand
	drop    float64
	latency time.Duration
	jitter  time.Duration
	corrupt float64
	parts   map[core.NodeID]bool
	nCut    uint64
	nMangle uint64

	drops *counters // what this layer dropped itself: loss and partition cuts
}

var _ Transport = (*ChaosTransport)(nil)

// NewChaosTransport wraps inner with the given degradation profile.
func NewChaosTransport(inner Transport, cfg ChaosConfig) (*ChaosTransport, error) {
	if !(cfg.DropRate >= 0 && cfg.DropRate < 1) { // NaN fails it too
		return nil, fmt.Errorf("runtime: loss rate %v outside [0, 1)", cfg.DropRate)
	}
	if !(cfg.CorruptRate >= 0 && cfg.CorruptRate <= 1) { // NaN fails it too
		return nil, fmt.Errorf("runtime: corrupt rate %v outside [0, 1]", cfg.CorruptRate)
	}
	if cfg.Latency < 0 || cfg.Jitter < 0 {
		return nil, fmt.Errorf("runtime: negative chaos latency (%v) or jitter (%v)", cfg.Latency, cfg.Jitter)
	}
	return &ChaosTransport{
		inner:   inner,
		rng:     core.NewRand(cfg.Seed),
		drop:    cfg.DropRate,
		latency: cfg.Latency,
		jitter:  cfg.Jitter,
		corrupt: cfg.CorruptRate,
		parts:   make(map[core.NodeID]bool),
		drops:   newCounters(),
	}, nil
}

// NewLossyTransport wraps inner with i.i.d. drop probability rate in
// [0, 1): the chaos layer with only its drop rate set.
func NewLossyTransport(inner Transport, rate float64, seed uint64) (*ChaosTransport, error) {
	return NewChaosTransport(inner, ChaosConfig{DropRate: rate, Seed: seed})
}

// Register implements Transport. The inner inbox is re-plumbed through a
// two-stage latency pipe: a stamper records each envelope's delivery
// deadline the moment it arrives, and a delayer sleeps until that deadline
// before forwarding. Stamping on arrival means n queued envelopes are
// delayed by one latency, not n — the wrapper models a slow link, not a
// serial one. Closing the inner transport closes its inbox, which drains
// both stages and closes the returned channel.
func (t *ChaosTransport) Register(id core.NodeID) (<-chan Envelope, error) {
	in, err := t.inner.Register(id)
	if err != nil {
		return nil, err
	}
	stamped := make(chan delayed, inboxSize)
	out := make(chan Envelope, inboxSize)
	go func() {
		for env := range in {
			stamped <- delayed{env: env, due: time.Now().Add(t.delay())}
		}
		close(stamped)
	}()
	go func() {
		for d := range stamped {
			if wait := time.Until(d.due); wait > 0 {
				time.Sleep(wait)
			}
			out <- d.env
		}
		close(out)
	}()
	return out, nil
}

// delay draws one delivery delay under the current latency profile.
func (t *ChaosTransport) delay() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.latency
	if t.jitter > 0 {
		d += time.Duration(t.rng.Int64N(int64(t.jitter)))
	}
	return d
}

// Send implements Transport. An envelope lost to the drop rate or
// addressed into an active partition is dropped silently (counted,
// reported as success — a lossy or cut link, not an error); surviving
// envelopes are structurally corrupted with the configured probability
// before being handed to the inner transport.
func (t *ChaosTransport) Send(ctx context.Context, to core.NodeID, env Envelope) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t.mu.Lock()
	cut := t.parts[to]
	if cut {
		t.nCut++
	}
	lost := cut || (t.drop > 0 && t.rng.Float64() < t.drop)
	mangle := !lost && t.corrupt > 0 && t.rng.Float64() < t.corrupt
	var mr uint64
	if mangle {
		mr = t.rng.Uint64()
		t.nMangle++
	}
	t.mu.Unlock()
	if lost {
		t.drops.dropped(to)
		return nil
	}
	if mangle {
		env = corruptEnvelope(env, mr)
	}
	return t.inner.Send(ctx, to, env)
}

// SetLatency replaces the latency profile for envelopes stamped from now
// on; envelopes already in the delay pipe keep their original deadline.
func (t *ChaosTransport) SetLatency(base, jitter time.Duration) error {
	if base < 0 || jitter < 0 {
		return fmt.Errorf("runtime: negative chaos latency (%v) or jitter (%v)", base, jitter)
	}
	t.mu.Lock()
	t.latency, t.jitter = base, jitter
	t.mu.Unlock()
	return nil
}

// SetCorruptRate replaces the per-envelope corruption probability.
func (t *ChaosTransport) SetCorruptRate(rate float64) error {
	if !(rate >= 0 && rate <= 1) { // NaN fails it too
		return fmt.Errorf("runtime: corrupt rate %v outside [0, 1]", rate)
	}
	t.mu.Lock()
	t.corrupt = rate
	t.mu.Unlock()
	return nil
}

// SetPartition cuts the given destinations off from all senders through
// this transport until Heal (adds to any partition already in force).
func (t *ChaosTransport) SetPartition(nodes []core.NodeID) {
	t.mu.Lock()
	for _, id := range nodes {
		t.parts[id] = true
	}
	t.mu.Unlock()
}

// Heal lifts every partition.
func (t *ChaosTransport) Heal() {
	t.mu.Lock()
	t.parts = make(map[core.NodeID]bool)
	t.mu.Unlock()
}

// Latency returns the current latency profile.
func (t *ChaosTransport) Latency() (base, jitter time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.latency, t.jitter
}

// CorruptRate returns the current per-envelope corruption probability.
func (t *ChaosTransport) CorruptRate() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.corrupt
}

// Partitioned returns the partitioned destinations, sorted.
func (t *ChaosTransport) Partitioned() []core.NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]core.NodeID, 0, len(t.parts))
	for id := range t.parts {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Cut returns the number of envelopes dropped by partitions so far.
func (t *ChaosTransport) Cut() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nCut
}

// Corrupted returns the number of envelopes structurally corrupted so far.
func (t *ChaosTransport) Corrupted() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nMangle
}

// Close implements Transport.
func (t *ChaosTransport) Close() error { return t.inner.Close() }

// Stats implements Transport: the inner transport's counters plus the
// drops this layer injected (loss and partition cuts). An envelope is
// counted exactly once, as sent by the medium or dropped by some layer.
func (t *ChaosTransport) Stats() TransportStats {
	s := t.inner.Stats()
	for id, in := range t.drops.snapshot().PerNode {
		ns := s.PerNode[id]
		ns.Dropped += in.Dropped
		s.PerNode[id] = ns
		s.Total.Dropped += in.Dropped
	}
	return s
}

// corruptEnvelope returns a structurally corrupted copy of env: one
// coefficient or payload symbol truncated or appended, chosen by r. The
// slices are copied first — the caller's envelope may alias live protocol
// state. Length mutations (never value flips) guarantee the receiver's
// width screens reject the packet — a rank-only receiver's payload width
// is 0, so a payload byte appended to its frames is as wrong as one cut
// from a payload frame (TestCorruptedFramesNeverHelp): a flipped symbol
// would still be a valid, possibly even innovative, combination, which is
// camouflage, not corruption.
func corruptEnvelope(env Envelope, r uint64) Envelope {
	env.Coeffs = append([]gf.Elem(nil), env.Coeffs...)
	env.Payload = append([]byte(nil), env.Payload...)
	switch {
	case r&1 == 0 && len(env.Coeffs) > 0:
		env.Coeffs = env.Coeffs[:len(env.Coeffs)-1]
	case r&2 == 0:
		env.Coeffs = append(env.Coeffs, 0)
	case len(env.Payload) > 0:
		env.Payload = env.Payload[:len(env.Payload)-1]
	default:
		env.Payload = append(env.Payload, 0)
	}
	return env
}
