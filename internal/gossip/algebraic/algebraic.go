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
	"errors"
	"fmt"
	"math/rand/v2"

	"algossip/internal/core"
	"algossip/internal/gf"
	"algossip/internal/gossip"
	"algossip/internal/graph"
	"algossip/internal/queueing"
	"algossip/internal/rlnc"
	"algossip/internal/sim"
)

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
// what the packet still awaits: a length of skipped marks a delivery whose
// verdict was predetermined at send time (receiver already at full rank)
// — the packet was never filled and EndRound only counts it as useless; a
// positive length marks a packet whose payload is still to be filled
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

// deferredFill is the state of a protocol that fills payloads at the end
// of the round: the slab holding the round's factors (used of it so far),
// the sender-grouped index and group counters of the fill pass, and the
// buffer the receiver-grouped deliveries are written to, which then
// trades places with Protocol.staged.
type deferredFill struct {
	slab          []gf.Elem
	used          int
	order, bucket []int32
	regrouped     []delivery
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

	staged     []delivery
	stagedPeak int               // decaying high-water mark of staged length
	free       []*rlnc.GenPacket // recycled packets; backing arrays are reused by EmitInto

	// fill is non-nil for a synchronous protocol that carries payloads: it
	// stages a packet after the coefficient half of its emit and fills the
	// payloads in EndRound, sender by sender (see orderByCache). A
	// rank-only protocol has no payload half and the asynchronous model no
	// round to defer to.
	fill *deferredFill

	shard *shardCore // sharded-execution state (nil = classic wake loop)

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
	if cfg.Action == 0 {
		cfg.Action = core.Exchange
	}
	if cfg.LossRate < 0 || cfg.LossRate >= 1 {
		return nil, fmt.Errorf("algebraic: loss rate %v outside [0, 1)", cfg.LossRate)
	}
	gen := rlnc.GenConfig{Inner: cfg.RLNC, K: cfg.RLNC.K, GenSize: cfg.GenSize}
	if cfg.GenSize == 0 {
		gen.GenSize = gen.K
	}
	n := g.N()
	p := &Protocol{
		Progress: gossip.NewProgress(n, model),
		g:        g,
		sel:      sel,
		rng:      rng,
		cfg:      cfg,
		gen:      gen,
		nodes:    make([]*rlnc.GenNode, n),
		initial:  make([][]rlnc.Message, n),
	}
	if model == core.Synchronous && !cfg.RLNC.RankOnly {
		p.fill = &deferredFill{bucket: make([]int32, n+1)}
	}
	for i := range p.nodes {
		node, err := rlnc.NewGenNode(gen)
		if err != nil {
			return nil, fmt.Errorf("algebraic: node %d: %w", i, err)
		}
		p.nodes[i] = node
	}
	if err := p.initTraits(cfg); err != nil {
		return nil, err
	}
	return p, nil
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
// runs scale to n ≥ 10^5.
func (p *Protocol) EnableSharded(seed uint64, retire bool) error {
	if p.Model != core.Synchronous {
		return errors.New("algebraic: sharded execution requires the synchronous model")
	}
	if p.traits != nil {
		return errors.New("algebraic: sharded execution does not support adversarial/heterogeneous traits")
	}
	p.shard = newShardCore(p, seed, retire)
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
// rank-only mode, in which case bare indices are seeded.
func (p *Protocol) SeedAll(assign []core.NodeID, msgs []rlnc.Message) error {
	if len(assign) != p.gen.K {
		return fmt.Errorf("algebraic: assignment length %d != k %d", len(assign), p.gen.K)
	}
	for i, v := range assign {
		msg := rlnc.Message{Index: i}
		if msgs != nil {
			msg = msgs[i]
			if msg.Index != i {
				return fmt.Errorf("algebraic: message %d has index %d", i, msg.Index)
			}
		}
		p.Seed(v, msg)
	}
	return nil
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string {
	if p.cfg.GenSize > 0 {
		return fmt.Sprintf("gen-algebraic-gossip(g=%d)", p.cfg.GenSize)
	}
	return fmt.Sprintf("algebraic-gossip(%s,%s)", p.sel.Name(), p.cfg.Action)
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

// resetNode reinstalls node v as a fresh machine holding only its
// initial seeds.
func (p *Protocol) resetNode(v core.NodeID) {
	node, err := rlnc.NewGenNode(p.gen)
	if err != nil {
		panic(err) // unreachable: New built every node from this config
	}
	p.nodes[v] = node
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
// clobbered) to the freelist for the next EmitInto.
func (p *Protocol) recycle(pkt *rlnc.GenPacket) {
	p.free = append(p.free, pkt)
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
	// combination — the delivery still flows through the normal pool /
	// staging path (flagged skip) so buffer dynamics are identical, and
	// apply-time accounting records the Useless verdict any real packet
	// would have received. Rank never decreases within a round, so the
	// verdict holds at delivery time.
	skip := p.nodes[to].CanDecode()
	pkt := p.getPacket()
	var fac facSpan
	var ok bool
	if skip {
		fac.len = skipped
		ok = p.nodes[from].SkipEmit(p.rng)
	} else {
		// The two halves of EmitInto, called apart: the payload half runs
		// here and now unless the round's end will run it.
		var facs []gf.Elem
		facs, ok = p.nodes[from].EmitCoeffsInto(p.rng, pkt, p.factorRoom())
		if f := p.fill; f != nil {
			// A packet lost in flight below leaves its factors in the slab
			// until the round ends.
			fac = facSpan{int32(f.used), int32(len(facs))}
			f.used += len(facs)
		} else if ok {
			p.nodes[from].FillPayload(pkt, facs)
		}
	}
	if !ok {
		p.recycle(pkt)
		return // rank-0 sender: nothing to say, no randomness drawn
	}
	p.Counts.Sent++
	if p.cfg.LossRate > 0 && p.rng.Float64() < p.cfg.LossRate {
		p.Counts.Dropped++
		p.recycle(pkt)
		return // lost in flight (and, when deferred, never filled)
	}
	if p.Model == core.Synchronous {
		p.staged = append(p.staged, delivery{to: to, from: from, pkt: pkt, fac: fac})
		return
	}
	if skip {
		p.verifyAccount()
		p.Counts.Useless++
	} else {
		p.apply(to, pkt)
	}
	p.recycle(pkt)
}

// factorRoom returns where the next emit records its factors: nil — the
// decoder's own scratch, for a payload filled at once — unless payloads
// are filled at the round's end, and then the slab behind what the round
// has taken so far.
func (p *Protocol) factorRoom() []gf.Elem {
	f := p.fill
	if f == nil {
		return nil
	}
	if f.used+p.gen.GenSize > len(f.slab) {
		f.grow(p.gen.GenSize)
	}
	return f.slab[f.used:]
}

// grow makes room in the slab for stride more factors, keeping the
// round's.
func (f *deferredFill) grow(stride int) {
	grown := make([]gf.Elem, max(2*len(f.slab), 16*stride))
	copy(grown, f.slab[:f.used])
	f.slab = grown
}

// apply lets node `to` receive the packet and updates completion tracking.
// The packet is pool-owned: ReceiveOwned reduces directly in its backing
// arrays (clobbering the contents, never retaining them), and the caller
// recycles it afterwards.
func (p *Protocol) apply(to core.NodeID, pkt *rlnc.GenPacket) {
	p.verifyAccount()
	if p.verify && pkt.Packet.Corrupt {
		// Verification caught the pollution; the packet never reaches the
		// eliminator and counts as neither helpful nor useless.
		p.Counts.Polluted++
		return
	}
	if p.nodes[to].ReceiveOwned(pkt) {
		p.Counts.Helpful++
		p.refreshDone(to)
	} else {
		p.Counts.Useless++
	}
}

// refreshDone records the completion round for node v if it just reached
// full rank.
func (p *Protocol) refreshDone(v core.NodeID) {
	if !p.IsDone(v) && p.nodes[v].CanDecode() {
		p.MarkDone(v)
	}
}

// EndRound implements sim.Protocol: applies the staged deliveries and
// recycles their packets — in staging order, or, when payloads were
// deferred, in the order orderByCache leaves them in.
func (p *Protocol) EndRound(int) {
	if p.fill != nil {
		p.orderByCache()
	}
	for _, d := range p.staged {
		if d.fac.len == skipped {
			p.verifyAccount()
			p.Counts.Useless++
		} else {
			p.apply(d.to, d.pkt)
		}
		p.recycle(d.pkt)
	}
	p.resetStaged()
}

// orderByCache prepares the commit of a protocol that carries payloads,
// where a round is bound by streaming stored payload rows (k·r bytes a
// node, every emit and every receive) and not by bookkeeping: it orders
// the two halves of the commit by whose rows they stream. First every
// deferred payload is filled, grouped by sender: a node's rows come from
// the outer cache for its first emit of the round and from the inner one
// for the rest. Then the staged deliveries are regrouped by receiver, for
// the same reason, stably: each receiver still sees its packets in
// staging order, and no node's decoder depends on another's, so ranks,
// verdicts, counters and completion rounds are those of the
// staging-order walk; NodeDone callbacks within the round arrive in
// receiver order. The fills go through an index and leave the staged
// list as it is — regrouping a list already sorted by sender would hand a
// receiver its packets in sender order.
//
// Nothing is stored between a packet's emit and its fill — the wake phase
// only stages, and every fill precedes every delivery — which is what
// the recorded factors rest on (rlnc.Node.FillPayload).
func (p *Protocol) orderByCache() {
	p.fillStaged()
	f := p.fill
	start := f.groupStarts(p.staged, func(d *delivery) core.NodeID { return d.to })
	if cap(f.regrouped) < len(p.staged) {
		f.regrouped = make([]delivery, len(p.staged), cap(p.staged))
	}
	out := f.regrouped[:len(p.staged)]
	for _, d := range p.staged {
		out[start[d.to]] = d
		start[d.to]++
	}
	p.staged, f.regrouped = out, p.staged[:0]
}

// fillStaged completes the payload of every staged packet that still
// awaits it, sender by sender, and releases the round's factors.
func (p *Protocol) fillStaged() {
	f := p.fill
	start := f.groupStarts(p.staged, func(d *delivery) core.NodeID { return d.from })
	if cap(f.order) < len(p.staged) {
		f.order = make([]int32, len(p.staged), cap(p.staged))
	}
	f.order = f.order[:len(p.staged)]
	for i := range p.staged {
		v := p.staged[i].from
		f.order[start[v]] = int32(i)
		start[v]++
	}
	for _, i := range f.order {
		if d := &p.staged[i]; d.fac.len > 0 {
			p.nodes[d.from].FillPayload(d.pkt, f.slab[d.fac.off:d.fac.off+d.fac.len])
			d.fac.len = 0
		}
	}
	f.used = 0
}

// groupStarts is the counting half of a stable counting sort of staged by
// key (a node): it returns, per node, where that node's group starts — in
// reused scratch, O(n + staged), valid until the next call.
func (f *deferredFill) groupStarts(staged []delivery, key func(*delivery) core.NodeID) []int32 {
	start := f.bucket
	clear(start)
	for i := range staged {
		start[key(&staged[i])+1]++
	}
	for v := 1; v < len(start); v++ {
		start[v] += start[v-1]
	}
	return start
}

// resetStaged empties the staged buffer for reuse next round, shrinking
// it (and the packet freelist, which mirrors its capacity needs) when the
// capacity has grown far past a decaying high-water mark — so one burst
// round on a dense graph does not pin peak memory for the rest of a long
// run, while steady traffic never reallocates.
func (p *Protocol) resetStaged() {
	used := len(p.staged)
	if used > p.stagedPeak {
		p.stagedPeak = used
	} else {
		// Exponential decay keeps the mark tracking recent rounds only.
		p.stagedPeak -= (p.stagedPeak - used) / 8
	}
	const minShrinkCap = 64
	if cap(p.staged) > minShrinkCap && cap(p.staged) > 4*p.stagedPeak {
		p.staged = make([]delivery, 0, 2*p.stagedPeak)
		if len(p.free) > 2*p.stagedPeak {
			p.free = append([]*rlnc.GenPacket(nil), p.free[:2*p.stagedPeak]...)
		}
		return
	}
	p.staged = p.staged[:0]
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
