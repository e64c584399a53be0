// Package algebraic implements the algebraic gossip protocol (paper
// Sections 2 and 3): every message a node sends is a uniformly random
// linear combination of the packets it stores (RLNC), and a node finishes
// once its equation matrix reaches rank k.
//
// There is one state machine. The paper codes over all k messages at
// once; generation coding (rlnc.GenConfig) runs the same three verbs —
// emit a random combination, reduce what arrives, count rank — over
// ⌈k/g⌉ small decoders. Protocol always drives rlnc.GenNode, and the
// paper's protocol is the one-generation case g = k, whose random stream
// and trajectory are exactly those of a single whole-k decoder.
//
// The protocol is parameterized by the communication model
// (sim.PartnerSelector): with sim.Uniform it is the *uniform algebraic
// gossip* of Theorem 1; with sim.RoundRobin it is a quasirandom variant;
// with tag.Protocol, which answers a node's tree parent on its even
// wakeups, it is TAG's Phase 2 (Lemma 1).
package algebraic

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"strconv"

	"algossip/internal/core"
	"algossip/internal/gf"
	"algossip/internal/gossip"
	"algossip/internal/graph"
	"algossip/internal/queueing"
	"algossip/internal/rlnc"
	"algossip/internal/sim"
)

// Theorem1Bound is Theorem 1's reference for uniform algebraic gossip
// spreading k messages on a graph of n nodes, diameter d and maximum
// degree maxDeg: (k + log n + d)·maxDeg rounds, with log n taken as
// ⌊log₂ n⌋ + 1 and the constant as 1.
func Theorem1Bound(n, k, d, maxDeg int) float64 {
	return float64(k+d+int(math.Log2(float64(n)))+1) * float64(maxDeg)
}

// Config parameterizes an algebraic gossip run.
type Config struct {
	// RLNC is the coding configuration (field, k, payload length, mode).
	RLNC rlnc.Config
	// GenSize, when positive, codes the k messages in ⌈k/GenSize⌉
	// independent generations (rlnc.GenConfig) instead of all at once;
	// must not exceed RLNC.K (rlnc.GenSizeError otherwise). Zero is the
	// paper's protocol: one generation of size k.
	GenSize int
	// Action is the information-flow direction on contact; the paper's
	// results are for Exchange, the default when zero.
	Action core.Action
	// LossRate drops each transmitted packet independently with this
	// probability (failure injection). Network coding tolerates loss
	// gracefully: the expected slowdown is about 1/(1-LossRate), because
	// every surviving packet is still helpful with probability >= 1-1/q.
	LossRate float64
	// Traits, when non-nil, assigns each node an adversarial or
	// heterogeneous profile (see adversary.go); it must have exactly one
	// entry per node. Nil reproduces the classic all-honest protocol.
	Traits []NodeTraits
	// TraitSeed seeds the class RNG that draws straggler service times —
	// a stream separate from the protocol RNG, so class scheduling never
	// perturbs the protocol's pinned randomness. Only read when Traits
	// declares stragglers.
	TraitSeed uint64
}

// delivery is one staged packet transfer (synchronous model). fac says
// how the packet is built: a length of skipped marks a delivery whose
// verdict was predetermined at send time (receiver already at full rank)
// — the packet was never built and EndRound only counts it as useless; a
// positive length marks a packet filled at the round's end
// (Protocol.fill), from that many factors at that offset of the slab.
// The struct keeps the shape it had before payloads were deferred — 32
// bytes, four fields, which is as many as the compiler will still build
// in registers and store field by field; a fifth makes every staging
// append a temporary plus a bulk write barrier, which cost sub-millisecond
// rank-only trials 3–7% (DESIGN.md "Payload rounds are ordered by cache").
type delivery struct {
	to, from core.NodeID
	pkt      *rlnc.GenPacket
	fac      facSpan
}

// facSpan is a run of the factor slab; len is skipped for a packet that
// was never built.
type facSpan struct{ off, len int32 }

const skipped = -1

// commitGrain is the payload bytes a round's fills must stream for each
// worker a commit pass runs on (deferredFill.width). One more worker
// costs a goroutine start and a join. Measured on the reference box (2
// vCPUs, gfni tier): after 100 µs of serial work — a wake phase — a
// two-worker pass of empty parts takes ≈2.5 µs against 0.09 µs on the
// caller alone, the second thread having gone to sleep, while the fused
// kernel streams 256 KiB of stored rows from L3 in ≈10 µs (25 GB/s). A
// worker with less than a grain would wait a quarter of its share or
// more.
const commitGrain = 256 << 10

// deferredFill is the state of a protocol that fills payloads at the end
// of the round: the slab holding the round's factors (used of it so far),
// the sender-grouped index and group counters of the fill pass, the
// buffer the receiver-grouped deliveries are written to, which then
// trades places with Protocol.staged, and what the commit's two passes
// run on.
type deferredFill struct {
	slab          []gf.Elem
	used          int
	order, bucket []int32
	regrouped     []delivery

	crew     sim.Crew[*Protocol]
	procs    int          // GOMAXPROCS when the protocol was built: the widest a pass runs
	grain    int          // commitGrain; zero lifts the floor (the width tests)
	streamed int          // payload bytes the round's fills stream
	parts    []commitPart // the pass in flight, one per worker; procs long once used
}

// commitPart is one worker's share of a commit pass: the positions of the
// pass's list from the previous part's end (0 for the first) up to end,
// and, in the delivery pass, what the worker counted.
type commitPart struct {
	end     int
	traffic gossip.Traffic
}

// Protocol is the algebraic gossip state machine. It implements
// sim.Protocol; a node is done (gossip.Progress) once it has rank k. Not
// safe for concurrent use.
type Protocol struct {
	gossip.Progress
	g   *graph.Graph
	sel sim.PartnerSelector
	rng *rand.Rand
	cfg Config
	gen rlnc.GenConfig // coding layout; one generation of size k when cfg.GenSize == 0

	nodes   []*rlnc.GenNode
	initial [][]rlnc.Message // per-node initial seeds, replayed on churn reset

	staged []delivery        // the round's deliveries; sized on the first stage (sizeStaged)
	free   []*rlnc.GenPacket // recycled packets; backing arrays are reused by EmitInto

	// fill is non-nil for a synchronous protocol that carries payloads: it
	// stages a packet after the draws of its emit and fills the packets in
	// EndRound, sender by sender (see commitByCache). A rank-only protocol
	// has no payload half and the asynchronous model no round to defer to.
	fill *deferredFill

	shard *shardCore // sharded-execution state (nil = classic wake loop)
	spare *shardCore // the shard core Renew kept from prev, for EnableSharded to renew

	// Adversarial/heterogeneous state (nil/zero for classic runs).
	traits     []NodeTraits       // per-node profiles (nil = all honest)
	classRng   *rand.Rand         // straggler service-time stream (TraitSeed)
	service    []queueing.Sampler // per-node service samplers (nil entries = unthrottled)
	busyUntil  []int              // straggler: first round the node may transmit again
	verify     bool               // any Byzantine node => receivers verify every packet
	verifyCost int                // modeled field ops per verification: coefficients on the wire + r
}

var (
	_ sim.Protocol        = (*Protocol)(nil)
	_ sim.TopologyAware   = (*Protocol)(nil)
	_ sim.ShardedProtocol = (*Protocol)(nil)
)

// New constructs an algebraic gossip protocol over g. The caller seeds the
// k initial messages with Seed before running.
func New(g *graph.Graph, model core.TimeModel, sel sim.PartnerSelector, cfg Config, rng *rand.Rand) (*Protocol, error) {
	return Renew(nil, g, model, sel, cfg, rng)
}

// Renew is New given a finished protocol, prev, whose state it may take
// over: when prev has the shape the new protocol needs (Fits), its
// decoders are reset instead of rebuilt (rlnc.GenNode.Reset), and its
// packet freelist and round buffers are kept. Whatever prev's shape, its
// shard core (sharded execution's streams, slots and slot packets) is
// kept for EnableSharded to renew at the same node count. Everything else
// is built as New builds it, so the new protocol runs exactly as a new
// one would, whatever prev ran before. A nil prev, or one of another
// shape, leaves New's path for the decoders; prev must not be used
// afterwards either way. harness.TakeIdle picks prev.
func Renew(prev *Protocol, g *graph.Graph, model core.TimeModel, sel sim.PartnerSelector, cfg Config, rng *rand.Rand) (*Protocol, error) {
	if cfg.Action == 0 {
		cfg.Action = core.Exchange
	}
	if !(cfg.LossRate >= 0 && cfg.LossRate < 1) { // NaN fails it too
		return nil, fmt.Errorf("algebraic: loss rate %v outside [0, 1)", cfg.LossRate)
	}
	gen := cfg.genConfig()
	n := g.N()
	p := &Protocol{Progress: gossip.NewProgress(n, model), g: g, sel: sel, rng: rng, cfg: cfg, gen: gen}
	deferred := model == core.Synchronous && !cfg.RLNC.RankOnly
	if prev != nil {
		p.spare = cmp.Or(prev.shard, prev.spare)
	}
	if prev != nil && prev.Fits(n, cfg) {
		p.takeOver(prev, deferred)
	} else {
		p.nodes = make([]*rlnc.GenNode, n)
		p.initial = make([][]rlnc.Message, n)
		for i := range p.nodes {
			node, err := rlnc.NewGenNode(gen)
			if err != nil {
				return nil, fmt.Errorf("algebraic: node %d: %w", i, err)
			}
			p.nodes[i] = node
		}
	}
	if deferred {
		if p.fill == nil {
			p.fill = &deferredFill{bucket: make([]int32, n+1)}
		}
		p.fill.procs, p.fill.grain = runtime.GOMAXPROCS(0), commitGrain
	}
	if err := p.initTraits(cfg); err != nil {
		return nil, err
	}
	return p, nil
}

// genConfig is the coding layout cfg asks for: one generation of size k
// when GenSize is zero.
func (cfg Config) genConfig() rlnc.GenConfig {
	return rlnc.GenConfig{Inner: cfg.RLNC, K: cfg.RLNC.K, GenSize: cmp.Or(cfg.GenSize, cfg.RLNC.K)}
}

// Fits reports whether Renew, given p, resets p's decoders for n nodes
// and cfg instead of building them: p has n > 0 nodes, and decoders of
// the field order, k, GenSize, payload width and backend cfg asks for
// (rlnc.GenNode.Fits). Action, loss and traits are no part of the shape.
func (p *Protocol) Fits(n int, cfg Config) bool {
	return n > 0 && len(p.nodes) == n && p.nodes[0].Fits(cfg.genConfig())
}

// SplitShardCore moves p's shard core of n nodes (the one it ran on or
// the spare Renew kept) into an otherwise empty protocol for Renew to
// take, and keeps the rest; nil when p keeps no shard core of n nodes.
func (p *Protocol) SplitShardCore(n int) *Protocol {
	sc := cmp.Or(p.shard, p.spare)
	if sc == nil || sc.n != n {
		return nil
	}
	p.shard, p.spare = nil, nil
	return &Protocol{spare: sc}
}

// takeOver moves prev's reusable state into p, a protocol of the same
// shape: the decoders, reset; the initial-seed lists, empty; the packet
// freelist and the staged list; and, when p defers payload fills, the
// round's fill buffers. A reused arena is never cleared — a row's slot is
// written before it is read — so nothing here is O(k·r). prev is left
// empty.
func (p *Protocol) takeOver(prev *Protocol, deferred bool) {
	p.nodes, p.initial = prev.nodes, prev.initial
	for i, node := range p.nodes {
		node.Reset()
		clear(p.initial[i])
		p.initial[i] = p.initial[i][:0]
	}
	p.free, p.staged = prev.free, prev.staged[:0]
	if deferred && prev.fill != nil {
		p.fill = prev.fill
		p.fill.used = 0
	}
	*prev = Protocol{}
}

// NewGen is New for a generation-coded run described by an rlnc.GenConfig
// (cfg.Inner.K is ignored, as everywhere): EXCHANGE contacts, no loss,
// all nodes honest.
func NewGen(g *graph.Graph, model core.TimeModel, sel sim.PartnerSelector, cfg rlnc.GenConfig, rng *rand.Rand) (*Protocol, error) {
	inner := cfg.Inner
	inner.K = cfg.K
	return New(g, model, sel, Config{RLNC: inner, GenSize: cfg.GenSize}, rng)
}

// initTraits validates and installs the adversarial/heterogeneous
// profiles (no-op when Config.Traits is nil).
func (p *Protocol) initTraits(cfg Config) error {
	if cfg.Traits == nil {
		return nil
	}
	n := len(p.nodes)
	if len(cfg.Traits) != n {
		return fmt.Errorf("algebraic: %d traits for %d nodes", len(cfg.Traits), n)
	}
	p.traits = cfg.Traits
	p.service = make([]queueing.Sampler, n)
	p.busyUntil = make([]int, n)
	for i, t := range cfg.Traits {
		if err := t.validate(); err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
		if t.Slow >= 2 {
			p.service[i] = queueing.Geometric(1 / float64(t.Slow))
			if p.classRng == nil {
				p.classRng = core.NewRand(cfg.TraitSeed)
			}
		}
		if t.byzantine() {
			p.verify = true
		}
	}
	// A verifier checks the coefficients on the wire against the payload:
	// GenSize + r operations, which is k + r for the paper's one generation.
	p.verifyCost = p.gen.GenSize + cfg.RLNC.PayloadLen
	if cfg.RLNC.RankOnly {
		// Rank-only simulations still model the cost the real verifier
		// would pay; r = 1 symbol is the minimum payload (as MessageBits).
		p.verifyCost = p.gen.GenSize + 1
	}
	return nil
}

// EnableSharded switches the protocol to sharded-execution semantics (see
// shard.go and sim.ShardedProtocol): per-node RNG streams derived from
// seed, per-node staging slots, a commit ordered per receiver (and as
// parallel as the round's wake phase was), and — on static topologies —
// retirement of provably inert nodes. Must be called before
// the run; the engine must be configured with sim.WithShards. The
// trajectory is identical for every shard count but differs from the
// classic serial semantics for the same seed. Generation coding caps the
// commit-time reduce cost at O(g²) per packet, which is what lets sharded
// runs scale to n ≥ 10^5. The shard core of the protocol Renew took over
// is renewed in place when it has as many nodes.
func (p *Protocol) EnableSharded(seed uint64, retire bool) error {
	if p.Model != core.Synchronous {
		return errors.New("algebraic: sharded execution requires the synchronous model")
	}
	if p.traits != nil {
		return errors.New("algebraic: sharded execution does not support adversarial/heterogeneous traits")
	}
	p.shard, p.spare = newShardCore(p, p.spare, seed, retire), nil
	return nil
}

// ActiveWords implements sim.ShardedProtocol (nil until EnableSharded).
func (p *Protocol) ActiveWords() []uint64 {
	if p.shard == nil {
		return nil
	}
	return p.shard.activeWords()
}

// WakeShard implements sim.ShardedProtocol.
func (p *Protocol) WakeShard(lo, hi int) { p.shard.wakeRange(lo, hi) }

// CommitRound implements sim.ShardedProtocol.
func (p *Protocol) CommitRound(int) { p.shard.commit() }

// Seed places message msg at node v (a node can hold more than one initial
// message). In rank-only mode the payload may be nil.
func (p *Protocol) Seed(v core.NodeID, msg rlnc.Message) {
	p.nodes[v].Seed(msg)
	p.initial[v] = append(p.initial[v], msg)
	p.refreshDone(v)
}

// SeedAll distributes messages according to assign: message i is placed at
// node assign[i]. msgs[i] provides the payloads; msgs may be nil in
// rank-only mode, in which case bare indices are seeded. Input that Seed
// would panic on — a node outside the graph, a message out of place or,
// in payload mode, of the wrong length — is an error, and nothing is
// seeded.
func (p *Protocol) SeedAll(assign []core.NodeID, msgs []rlnc.Message) error {
	if len(assign) != p.gen.K {
		return fmt.Errorf("algebraic: assignment length %d != k %d", len(assign), p.gen.K)
	}
	if msgs != nil && len(msgs) != len(assign) {
		return fmt.Errorf("algebraic: %d messages for k %d", len(msgs), p.gen.K)
	}
	for i, v := range assign {
		if v < 0 || int(v) >= len(p.nodes) {
			return fmt.Errorf("algebraic: message %d assigned to node %d of %d", i, v, len(p.nodes))
		}
		if msgs == nil {
			continue
		}
		if msgs[i].Index != i {
			return fmt.Errorf("algebraic: message %d has index %d", i, msgs[i].Index)
		}
		if r := p.cfg.RLNC.PayloadLen; !p.cfg.RLNC.RankOnly && len(msgs[i].Payload) != r {
			return fmt.Errorf("algebraic: message %d has %d payload symbols, want %d", i, len(msgs[i].Payload), r)
		}
	}
	for i, v := range assign {
		msg := rlnc.Message{Index: i}
		if msgs != nil {
			msg = msgs[i]
		}
		p.Seed(v, msg)
	}
	return nil
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string {
	// Concatenated, not formatted: every run names its protocol, and fmt's
	// printers come from a sync.Pool, which would make what a trial
	// allocates depend on when the collector last ran.
	if p.cfg.GenSize > 0 {
		return "gen-algebraic-gossip(g=" + strconv.Itoa(p.cfg.GenSize) + ")"
	}
	return "algebraic-gossip(" + p.sel.Name() + "," + p.cfg.Action.String() + ")"
}

// OnWake implements sim.Protocol: node v contacts sel.Partner(v) and
// transfers packets according to the configured action.
func (p *Protocol) OnWake(v core.NodeID) {
	p.Wake()
	u := p.sel.Partner(v, p.rng)
	if u == core.NilNode {
		return
	}
	out, back := p.cfg.Action.Legs()
	if out {
		p.sendLeg(v, u)
	}
	if back {
		p.sendLeg(u, v)
	}
}

// OnTopologyChange implements sim.TopologyAware: partner selection
// re-targets to the new graph and churned-out nodes restart from their
// initial seeds. Surviving nodes keep their subspace — received
// equations stay valid on any topology — which is what makes network
// coding robust under churn. A reset node's completion round is cleared
// (and re-reported to the observer when it re-completes), so Done can
// transiently regress on dynamic runs.
func (p *Protocol) OnTopologyChange(ev sim.TopologyEvent) {
	p.g = ev.Graph
	// The event fires at the boundary before BeginRound(ev.Round), so the
	// clock is still on the previous round; advance it first so resets
	// that immediately re-complete are stamped with the rejoin round in
	// both time models.
	p.Round = ev.Round
	ev.Retarget(p.sel)
	for _, v := range ev.Reset {
		p.resetNode(v)
	}
}

// resetNode restarts node v as a fresh machine holding only its initial
// seeds: its decoder is reset (rlnc.GenNode.Reset), not rebuilt.
func (p *Protocol) resetNode(v core.NodeID) {
	p.nodes[v].Reset()
	p.Unmark(v)
	for _, msg := range p.initial[v] {
		p.nodes[v].Seed(msg)
	}
	p.refreshDone(v)
}

// getPacket pops a recycled packet (or allocates the first few). Pooled
// packets keep their backing arrays — EmitInto refills them in place,
// reslicing or growing per generation — so the steady-state send path
// allocates nothing.
func (p *Protocol) getPacket() *rlnc.GenPacket {
	if n := len(p.free); n > 0 {
		pkt := p.free[n-1]
		p.free = p.free[:n-1]
		return pkt
	}
	// Tag and inner packet in one allocation.
	fresh := &struct {
		gp  rlnc.GenPacket
		pkt rlnc.Packet
	}{}
	fresh.gp.Packet = &fresh.pkt
	return &fresh.gp
}

// recycle returns a packet (whose contents ReceiveOwned may have
// clobbered) to the freelist for the next EmitInto; a skipped delivery's
// nil packet is nothing to return.
func (p *Protocol) recycle(pkt *rlnc.GenPacket) {
	if pkt != nil {
		p.free = append(p.free, pkt)
	}
}

// send emits a random combination from node `from` toward node `to`. In the
// synchronous model the delivery is staged until EndRound (information
// received in a round is available only at the next round); in the
// asynchronous model it applies immediately. With LossRate set, the packet
// may be dropped in flight.
func (p *Protocol) send(from, to core.NodeID) {
	if p.traits != nil {
		// Straggler gating first: a throttled node drops the leg whatever
		// its behavior (a slow polluter pollutes slowly).
		if !p.serviceReady(from) {
			return
		}
		switch p.traits[from].Behavior {
		case FreeRide:
			return
		case Replay:
			p.sendByz(from, to, false)
			return
		case Pollute:
			p.sendByz(from, to, true)
			return
		}
	}
	// A receiver already at full rank discards any combination: the
	// outcome (and every counter) is predetermined, so consume exactly the
	// randomness the emit would draw (SkipEmit) and skip building the
	// combination — the delivery still flows through the staging path
	// (flagged skip) so loss draws and delivery order are identical, and
	// its verdict (deliver) is the Useless one any real packet would have
	// received. Rank never decreases within a round, so the
	// verdict holds at delivery time. It carries no packet: one taken
	// from the freelist would come back without arrays, and which later
	// emit has to allocate them would depend on what ran before.
	skip := p.nodes[to].CanDecode()
	var pkt *rlnc.GenPacket
	var fac facSpan
	var ok bool
	if skip {
		fac.len = skipped
		ok = p.nodes[from].SkipEmit(p.rng)
	} else if pkt = p.getPacket(); p.fill == nil {
		ok = p.nodes[from].EmitInto(p.rng, pkt)
	} else {
		// The first half of EmitInto, into the round's slab: the round's
		// end builds the packet. A packet lost in flight below leaves its
		// factors in the slab until then.
		var facs []gf.Elem
		facs, ok = p.nodes[from].DrawInto(p.rng, pkt, p.room())
		fac = p.keep(facs)
	}
	if !ok {
		p.recycle(pkt)
		return // rank-0 sender: nothing to say, no randomness drawn
	}
	p.post(from, to, pkt, fac)
}

// post puts a packet on the wire — built, awaiting its fill, or (fac.len
// skipped) predetermined: it counts the packet sent, loses it in flight
// with LossRate, and then stages it until the round's end in the
// synchronous model or delivers it at once in the asynchronous one. Every
// send path, honest or Byzantine, ends here.
func (p *Protocol) post(from, to core.NodeID, pkt *rlnc.GenPacket, fac facSpan) {
	p.Counts.Sent++
	if p.cfg.LossRate > 0 && p.rng.Float64() < p.cfg.LossRate {
		p.Counts.Dropped++
		p.recycle(pkt)
		return // lost in flight (and, when deferred, never filled)
	}
	if p.Model == core.Synchronous {
		if p.staged == nil {
			p.sizeStaged()
		}
		p.staged = append(p.staged, delivery{to: to, from: from, pkt: pkt, fac: fac})
		return
	}
	if p.deliver(&p.Counts, to, pkt, fac.len == skipped) {
		p.refreshDone(to)
	}
	p.recycle(pkt)
}

// sizeStaged allocates the staged list and the packet freelist, on the
// first stage, with room for 2n deliveries: every node exchanging, the
// most a synchronous round stages, since each node wakes once a round. A
// boosted class (NodeTraits.Boost) sends more and grows them by append.
// Neither is ever shrunk, and the payload commit's index and regrouping
// buffer follow the list's capacity. A protocol that never stages — an
// asynchronous or a sharded one — never allocates them.
func (p *Protocol) sizeStaged() {
	room := 2 * len(p.nodes)
	p.staged = make([]delivery, 0, room)
	p.free = append(make([]*rlnc.GenPacket, 0, room), p.free...)
}

// room returns the free end of the round's factor slab, GenSize long:
// the buffer an emit's DrawInto draws its factors into. The slab is first
// allocated on the first emit, with room for a round in which every node
// sends two packets of GenSize factors, and doubles when a round needs
// more.
func (p *Protocol) room() []gf.Elem {
	f := p.fill
	if f.used+p.gen.GenSize > len(f.slab) {
		grown := make([]gf.Elem, max(2*len(f.slab), 2*len(p.nodes)*p.gen.GenSize))
		copy(grown, f.slab[:f.used])
		f.slab = grown
	}
	return f.slab[f.used : f.used+p.gen.GenSize]
}

// keep claims the factors an emit drew into room — none when its decoder
// built the packet whole (only byte rows with payloads defer anything) —
// for the rest of the round and returns where they are in the slab.
func (p *Protocol) keep(facs []gf.Elem) facSpan {
	f := p.fill
	at := facSpan{int32(f.used), int32(len(facs))}
	f.used += len(facs)
	return at
}

// deliver is the one verdict on a packet that reached node to, counted
// into t. A skipped packet — its receiver was full when it was sent — is
// useless. Otherwise, after the verifier's charge (verifyAccount, once a
// packet), a corrupt packet is polluted: verification caught it before
// the eliminator. Any other is reduced into the receiver and is helpful
// or useless. The packet is pool-owned: ReceiveOwned reduces directly in
// its backing arrays (clobbering the contents, never retaining them), and
// the caller recycles it afterwards. deliver reports whether the
// receiver's rank rose; the caller records a completion (refreshDone).
// It writes only t and the receiver's decoder, so different receivers'
// packets may be delivered at once.
func (p *Protocol) deliver(t *gossip.Traffic, to core.NodeID, pkt *rlnc.GenPacket, skip bool) bool {
	p.verifyAccount(t)
	switch {
	case skip:
	case p.verify && pkt.Packet.Corrupt:
		t.Polluted++
		return false
	case p.nodes[to].ReceiveOwned(pkt):
		t.Helpful++
		return true
	}
	t.Useless++
	return false
}

// refreshDone records the completion round for node v if it just reached
// full rank.
func (p *Protocol) refreshDone(v core.NodeID) {
	if !p.IsDone(v) && p.nodes[v].CanDecode() {
		p.MarkDone(v)
	}
}

// EndRound implements sim.Protocol: applies the staged deliveries in
// staging order and recycles their packets, or, when packets were
// deferred, commits by cache (commitByCache).
func (p *Protocol) EndRound(int) {
	if p.fill != nil {
		p.commitByCache()
	} else {
		for _, d := range p.staged {
			if p.deliver(&p.Counts, d.to, d.pkt, d.fac.len == skipped) {
				p.refreshDone(d.to)
			}
			p.recycle(d.pkt)
		}
	}
	p.staged = p.staged[:0]
}

// commitByCache is the commit of a protocol that carries payloads, where
// a round is bound by streaming stored payload rows (k·r bytes a node,
// every emit and every receive) and not by bookkeeping: it orders the two
// halves of the commit by whose rows they stream, and runs each on as
// many workers as the round's bytes pay for (width).
//
// First every deferred packet is filled, grouped by sender: a node's rows
// come from the outer cache for its first emit of the round and from the
// inner one for the rest. Then the staged deliveries are regrouped by
// receiver, for the same reason, stably: each receiver still sees its
// packets in staging order. The fills go through an index and leave the
// staged list as it is — regrouping a list already sorted by sender would
// hand a receiver its packets in sender order.
//
// Both passes are cut at group boundaries, so a node's decoder is touched
// by one worker of a pass, and no node's decoder depends on another's
// within a commit: ranks, verdicts and counters are those of the
// staging-order walk for any width. The deliveries count into one
// gossip.Traffic per worker, summed after the join; completions are then
// recorded serially, receiver by receiver in list order, so done stamps
// are the staging-order walk's and NodeDone callbacks within the round
// arrive in receiver order.
//
// Nothing is stored between a packet's draws and its fill — the wake
// phase only draws and stages, and every fill precedes every delivery —
// which is what the recorded factors rest on (rlnc.Node.Fill).
func (p *Protocol) commitByCache() {
	p.fillStaged()
	f := p.fill
	start, groups := f.groupStarts(p.staged, func(d *delivery) core.NodeID { return d.to })
	if cap(f.regrouped) < len(p.staged) {
		f.regrouped = make([]delivery, len(p.staged), cap(p.staged))
	}
	out := f.regrouped[:len(p.staged)]
	for _, d := range p.staged {
		out[start[d.to]] = d
		start[d.to]++
	}
	p.staged, f.regrouped = out, p.staged[:0]

	w := f.width(groups)
	f.cut(w, len(out), func(i int) core.NodeID { return out[i].to }, func(i int) int {
		if out[i].fac.len == skipped {
			return 0 // counted, never reduced
		}
		return 1
	})
	f.crew.Run(w, p, (*Protocol).deliverPart)
	for _, part := range f.parts[:w] {
		p.Counts.Add(part.traffic)
	}
	for i, d := range out {
		if i == 0 || d.to != out[i-1].to {
			p.refreshDone(d.to)
		}
		p.recycle(d.pkt)
	}
}

// fillStaged builds every staged packet that awaits its fill, sender by
// sender, and releases the round's factors.
func (p *Protocol) fillStaged() {
	f := p.fill
	start, groups := f.groupStarts(p.staged, func(d *delivery) core.NodeID { return d.from })
	if cap(f.order) < len(p.staged) {
		f.order = make([]int32, len(p.staged), cap(p.staged))
	}
	f.order = f.order[:len(p.staged)]
	f.streamed = 0
	for i, d := range p.staged {
		f.order[start[d.from]] = int32(i)
		start[d.from]++
		f.streamed += max(int(d.fac.len), 0) * p.cfg.RLNC.PayloadLen
	}
	w := f.width(groups)
	f.cut(w, len(f.order), func(i int) core.NodeID { return p.staged[f.order[i]].from }, func(i int) int {
		return max(int(p.staged[f.order[i]].fac.len), 0)
	})
	f.crew.Run(w, p, (*Protocol).fillPart)
	f.used = 0
}

// fillPart is part j of the fill pass: the packets of its run of senders.
func (p *Protocol) fillPart(j int) {
	f := p.fill
	lo, hi := f.span(j)
	for _, i := range f.order[lo:hi] {
		if d := &p.staged[i]; d.fac.len > 0 {
			p.nodes[d.from].Fill(d.pkt, f.slab[d.fac.off:d.fac.off+d.fac.len])
		}
	}
}

// deliverPart is part j of the delivery pass: the packets of its run of
// receivers, counted into the part's own traffic.
func (p *Protocol) deliverPart(j int) {
	f := p.fill
	lo, hi := f.span(j)
	var t gossip.Traffic
	for _, d := range p.staged[lo:hi] {
		p.deliver(&t, d.to, d.pkt, d.fac.len == skipped)
	}
	f.parts[j].traffic = t
}

// width is how many workers a commit pass over groups groups runs on:
// min(GOMAXPROCS, the round's streamed bytes ÷ commitGrain, groups), and
// at least one.
func (f *deferredFill) width(groups int) int {
	w := min(f.procs, groups)
	if f.grain > 0 {
		w = min(w, f.streamed/f.grain)
	}
	return max(w, 1)
}

// cut ends the w parts of a pass over n grouped positions at group
// boundaries, each part holding about an equal share of the weight (a
// part may be empty). node(i) is position i's group and weight(i) its
// share of the work.
func (f *deferredFill) cut(w, n int, node func(int) core.NodeID, weight func(int) int) {
	if len(f.parts) < w {
		f.parts = make([]commitPart, f.procs)
	}
	total := 0
	for i := range n {
		total += weight(i)
	}
	j, acc := 0, 0
	for i := 0; i+1 < n && j+1 < w; i++ {
		acc += weight(i)
		if node(i+1) != node(i) && acc*w >= (j+1)*total {
			f.parts[j].end = i + 1
			j++
		}
	}
	for ; j < w; j++ {
		f.parts[j].end = n
	}
}

// span is the positions part j of the pass in flight covers.
func (f *deferredFill) span(j int) (lo, hi int) {
	if j > 0 {
		lo = f.parts[j-1].end
	}
	return lo, f.parts[j].end
}

// groupStarts is the counting half of a stable counting sort of staged by
// key (a node): it returns, per node, where that node's group starts — in
// reused scratch, O(n + staged), valid until the next call — and how
// many nodes have a group.
func (f *deferredFill) groupStarts(staged []delivery, key func(*delivery) core.NodeID) (start []int32, groups int) {
	start = f.bucket
	clear(start)
	for i := range staged {
		k := key(&staged[i]) + 1
		if start[k] == 0 {
			groups++
		}
		start[k]++
	}
	for v := 1; v < len(start); v++ {
		start[v] += start[v-1]
	}
	return start, groups
}

// MessageBits returns the wire size of one of this protocol's messages:
// (k + r) symbols, or with Config.GenSize set (GenSize + r) symbols plus
// the generation tag.
func (p *Protocol) MessageBits() int {
	if p.cfg.GenSize > 0 {
		return p.gen.MessageBits()
	}
	return gossip.MessageBits(p.cfg.RLNC)
}

// Node returns node v's RLNC state (for decoding in tests and examples).
func (p *Protocol) Node(v core.NodeID) *rlnc.GenNode { return p.nodes[v] }

// RoundRobinAssign places message i at node i mod n — the all-to-all
// pattern when k == n, and an even spread otherwise.
func RoundRobinAssign(k, n int) []core.NodeID {
	out := make([]core.NodeID, k)
	for i := range out {
		out[i] = core.NodeID(i % n)
	}
	return out
}

// SingleAssign places all k messages at one origin node.
func SingleAssign(k int, origin core.NodeID) []core.NodeID {
	out := make([]core.NodeID, k)
	for i := range out {
		out[i] = origin
	}
	return out
}

// RandomMessages builds k messages with uniform random payloads of length r
// for payload-mode runs.
func RandomMessages(cfg rlnc.Config, rng *rand.Rand) []rlnc.Message {
	msgs := make([]rlnc.Message, cfg.K)
	for i := range msgs {
		msgs[i] = rlnc.Message{Index: i}
		if !cfg.RankOnly {
			msgs[i].Payload = randVector(cfg, rng)
		}
	}
	return msgs
}

func randVector(cfg rlnc.Config, rng *rand.Rand) []byte {
	return gf.RandBytes(cfg.Field, cfg.PayloadLen, rng)
}
