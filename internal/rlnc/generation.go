package rlnc

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"algossip/internal/gf"
)

// GenConfig configures generation-based RLNC: the k messages are split
// into ⌈k/GenSize⌉ *generations* coded independently, the standard
// practical refinement of RLNC (Chou et al.). Smaller generations shrink
// the per-packet coefficient overhead from k·log2(q) to GenSize·log2(q)
// bits (plus a generation tag) and cut decoding cost from O(k³) to
// O(k·GenSize²), at the price of a coupon-collector effect *across*
// generations — the trade-off quantified by ablation A7.
type GenConfig struct {
	// Inner carries the field and payload length; Inner.K is ignored
	// (derived per generation).
	Inner Config
	// K is the total number of messages.
	K int
	// GenSize is the number of messages per generation (the last
	// generation may be smaller).
	GenSize int
}

// GenSizeError reports a generation size outside the valid range [1, K].
// It is a typed error so config-parsing layers (harness specs, command
// flags) can distinguish a bad -generations value from other failures.
type GenSizeError struct {
	// GenSize is the rejected generation size.
	GenSize int
	// K is the total message count the size was validated against.
	K int
}

func (e *GenSizeError) Error() string {
	return fmt.Sprintf("rlnc: generation size %d outside [1, %d]", e.GenSize, e.K)
}

func (c GenConfig) validate() error {
	if c.K <= 0 {
		return fmt.Errorf("rlnc: k must be positive, got %d", c.K)
	}
	if c.GenSize <= 0 || c.GenSize > c.K {
		return &GenSizeError{GenSize: c.GenSize, K: c.K}
	}
	return nil
}

// Generations returns the number of generations.
func (c GenConfig) Generations() int { return (c.K + c.GenSize - 1) / c.GenSize }

// genBounds returns the global index range [lo, hi) of generation g.
func (c GenConfig) genBounds(g int) (lo, hi int) {
	lo = g * c.GenSize
	hi = lo + c.GenSize
	if hi > c.K {
		hi = c.K
	}
	return lo, hi
}

// GenK returns the message count of generation g — GenSize for all but
// possibly the last generation, 0 outside [0, Generations()). Wire codecs
// need it to size the one-coefficient-per-symbol expansion of a tagged
// packet.
func (c GenConfig) GenK(g int) int {
	if g < 0 || g >= c.Generations() {
		return 0
	}
	lo, hi := c.genBounds(g)
	return hi - lo
}

// GenPacket is a coded packet tagged with its generation.
type GenPacket struct {
	// Gen identifies the generation the coefficients refer to.
	Gen int
	// Packet carries the (per-generation) coefficients and payload.
	Packet *Packet
}

// GenNode is per-gossip-node RLNC state: one decoder (Node) per
// generation. It is the type the protocols and the live cluster drive;
// the paper's whole-k coding is the configuration GenSize == K, one
// generation, whose random stream and packets are exactly a plain Node's
// (see pick). Like Node it has one receive, ReceiveOwned, which clobbers
// the packet it is given, and its emits draw from a core.NewRand stream
// only.
type GenNode struct {
	cfg  GenConfig
	subs []*Node
	// rank and nonEmpty cache the sums over sub-decoders: large-n wake
	// loops query Rank/CanDecode on every contact, and recomputing them
	// as O(Generations()) sums dominated profiles at n = 10^5.
	rank     int
	nonEmpty int
}

// NewGenNode returns an empty generation-coded node.
func NewGenNode(cfg GenConfig) (*GenNode, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := &GenNode{cfg: cfg, subs: make([]*Node, cfg.Generations())}
	for g := range n.subs {
		lo, hi := cfg.genBounds(g)
		inner := cfg.Inner
		inner.K = hi - lo
		sub, err := NewNode(inner)
		if err != nil {
			return nil, err
		}
		n.subs[g] = sub
	}
	return n, nil
}

// Reset empties every generation's decoder for reuse (Node.Reset): a
// reset node is a new one of its configuration that allocates nothing
// to seed and receive.
func (n *GenNode) Reset() {
	for _, s := range n.subs {
		s.Reset()
	}
	n.rank, n.nonEmpty = 0, 0
}

// Fits reports whether the node has the shape NewGenNode(cfg) would build
// now: the same generations, of decoders that fit (Node.Fits) — every one
// is built from cfg.Inner, so the first answers for all.
func (n *GenNode) Fits(cfg GenConfig) bool {
	if cfg.K != n.cfg.K || cfg.GenSize != n.cfg.GenSize {
		return false // n.cfg is valid, so past here cfg's layout is too
	}
	inner := cfg.Inner
	inner.K = cfg.GenK(0)
	return n.subs[0].Fits(inner)
}

// Config returns the node's configuration.
func (n *GenNode) Config() GenConfig { return n.cfg }

// Rank returns the total rank across generations.
func (n *GenNode) Rank() int { return n.rank }

// CanDecode reports whether every generation is full rank.
func (n *GenNode) CanDecode() bool { return n.rank == n.cfg.K }

// gained records in the cached totals that sub-decoder g's rank just
// rose by one (a seed or a helpful packet adds exactly one equation).
func (n *GenNode) gained(g int) {
	n.rank++
	if n.subs[g].Rank() == 1 {
		n.nonEmpty++
	}
}

// Seed installs an initial message (global index).
func (n *GenNode) Seed(msg Message) {
	if msg.Index < 0 || msg.Index >= n.cfg.K {
		panic(fmt.Sprintf("rlnc: seed index %d out of range [0,%d)", msg.Index, n.cfg.K))
	}
	g := msg.Index / n.cfg.GenSize
	lo, _ := n.cfg.genBounds(g)
	local := msg
	local.Index = msg.Index - lo
	before := n.subs[g].Rank()
	n.subs[g].Seed(local)
	if n.subs[g].Rank() > before { // a repeated seed adds nothing
		n.gained(g)
	}
}

// Emit picks a uniformly random non-empty generation and emits a random
// combination from it. Returns nil when the node stores nothing.
// Allocates a fresh packet per call; hot paths use EmitInto with a
// pooled packet instead.
func (n *GenNode) Emit(rng *rand.Rand) *GenPacket {
	p := &GenPacket{}
	if !n.EmitInto(rng, p) {
		return nil
	}
	return p
}

// EmitInto fills p with a random combination from a uniformly random
// non-empty generation, reusing p's backing arrays across generations of
// different sizes (the inner emit reslices or grows them as needed).
// It reports false — drawing no randomness — when the node stores
// nothing yet, mirroring Node.EmitInto. The emitted trajectory is
// identical to Emit's. Like Node.EmitInto it only reads the node, and it
// is DrawInto with no factor buffer.
func (n *GenNode) EmitInto(rng *rand.Rand, p *GenPacket) bool {
	_, ok := n.DrawInto(rng, p, nil)
	return ok
}

// DrawInto is the first half of EmitInto — the generation pick and the
// picked decoder's Node.DrawInto, which see: every draw, and the factors
// Fill builds the packet from, drawn into facs, the caller's buffer,
// which needs room for GenSize of them.
func (n *GenNode) DrawInto(rng *rand.Rand, p *GenPacket, facs []gf.Elem) ([]gf.Elem, bool) {
	if n.nonEmpty == 0 {
		return nil, false
	}
	p.Gen = n.pick(rng)
	if p.Packet == nil {
		p.Packet = &Packet{}
	}
	return n.subs[p.Gen].DrawInto(rng, p.Packet, facs)
}

// Fill is the second half of EmitInto: p's generation's Node.Fill, from
// the factors DrawInto drew into the caller's buffer. The decoder must
// not have stored a packet since; it is only read, so packets of one
// node may be filled concurrently.
func (n *GenNode) Fill(p *GenPacket, facs []gf.Elem) {
	n.subs[p.Gen].Fill(p.Packet, facs)
}

// pick draws the generation the next emission codes over: uniform among
// the non-empty ones. With exactly one generation there is nothing to
// pick and nothing is drawn — rand/v2's IntN(1) would still consume a
// Uint64, and that draw is the whole difference between a one-generation
// node's random stream and a plain Node's; without it the two coincide,
// which is what makes classic coding the one-generation case. Callers
// check nonEmpty > 0 first.
func (n *GenNode) pick(rng *rand.Rand) int {
	if len(n.subs) == 1 {
		return 0
	}
	return n.pickAmong(rng)
}

// pickAmong is pick's draw, kept apart so the one-generation case inlines
// into the emit paths.
func (n *GenNode) pickAmong(rng *rand.Rand) int {
	pick := rng.IntN(n.nonEmpty)
	for g, s := range n.subs {
		if s.Rank() == 0 {
			continue
		}
		if pick == 0 {
			return g
		}
		pick--
	}
	panic("rlnc: nonEmpty out of sync with sub-decoder ranks")
}

// SkipEmit consumes exactly the randomness EmitInto would draw — the
// generation pick plus the picked decoder's Node.SkipEmit — without
// building the packet, for simulators whose packet's fate is already
// determined. It reports false (drawing nothing) when the node stores
// nothing yet.
func (n *GenNode) SkipEmit(rng *rand.Rand) bool {
	if n.nonEmpty == 0 {
		return false
	}
	return n.subs[n.pick(rng)].SkipEmit(rng)
}

// EmitReplayInto fills p with a copy of the first stored echelon row of
// the first non-empty generation (see Node.EmitReplayInto): the fixed,
// randomness-free packet a Byzantine replayer keeps retransmitting. It
// reports false when the node stores nothing yet.
func (n *GenNode) EmitReplayInto(p *GenPacket) bool {
	if p.Packet == nil {
		p.Packet = &Packet{}
	}
	for g, s := range n.subs {
		if s.Rank() > 0 {
			p.Gen = g
			return s.EmitReplayInto(p.Packet)
		}
	}
	return false
}

// ReceiveOwned ingests a packet the caller owns (pooled hot path),
// reporting whether it was helpful: reduction happens directly in the
// packet's backing arrays, clobbering their contents, but the arrays are
// never retained (Node.ReceiveOwned). Malformed packets — nil, generation
// tag outside [0, Generations()), or inner coefficient/payload lengths
// that do not match the tagged generation — are screened and reported
// unhelpful, never panicked on: generation tags arrive from the wire, so
// an out-of-range tag is an input error, not a programmer error.
func (n *GenNode) ReceiveOwned(p *GenPacket) bool {
	if !n.screen(p) {
		return false
	}
	if !n.subs[p.Gen].ReceiveOwned(p.Packet) {
		return false
	}
	n.gained(p.Gen)
	return true
}

// AdaptInto converts a wire-format packet (one coefficient per symbol,
// lengths matching the tagged generation) into the generation's native
// backend, mirroring Node.AdaptInto: a packet the generation's node
// converts is written into dst.Packet's arrays, and dst, a tagged packet
// the caller owns and reuses, is returned with the tag (a nil dst, or one
// with no Packet, gets a fresh packet). Malformed packets — nil,
// out-of-range generation tag, wrong lengths — return nil instead of
// panicking: generation tags arrive from the wire.
func (n *GenNode) AdaptInto(p, dst *GenPacket) *GenPacket {
	if p == nil || p.Packet == nil || p.Gen < 0 || p.Gen >= len(n.subs) {
		return nil
	}
	var into *Packet
	if dst != nil {
		into = dst.Packet
	}
	inner := n.subs[p.Gen].AdaptInto(p.Packet, into)
	switch {
	case inner == nil:
		return nil
	case inner == p.Packet:
		return p
	case into != nil && inner == into:
		dst.Gen = p.Gen
		return dst
	}
	return &GenPacket{Gen: p.Gen, Packet: inner}
}

// screen rejects packets whose generation tag or backend shape cannot be
// delivered to this node's decoders.
func (n *GenNode) screen(p *GenPacket) bool {
	if p == nil || p.Packet == nil {
		return false
	}
	if p.Gen < 0 || p.Gen >= len(n.subs) {
		return false
	}
	// The sub-decoders' ReceiveOwned screens lengths, but its
	// backend-mismatch checks panic (a mismatch is a programmer error on
	// a single-field link); a wire packet whose arrays belong to a
	// different backend than the tagged generation is screened here.
	sub := n.subs[p.Gen]
	switch {
	case sub.SlicedMode():
		return p.Packet.Sliced != nil
	case sub.BitMode():
		return p.Packet.Bits != nil
	default:
		return p.Packet.Coeffs != nil
	}
}

// Decode returns all k messages with global indices. It fails until every
// generation has full rank.
func (n *GenNode) Decode() ([]Message, error) {
	if !n.CanDecode() {
		return nil, ErrCannotDecode
	}
	if n.cfg.Inner.RankOnly {
		return nil, errors.New("rlnc: decode unavailable in rank-only mode")
	}
	out := make([]Message, 0, n.cfg.K)
	for g, s := range n.subs {
		lo, _ := n.cfg.genBounds(g)
		msgs, err := s.Decode()
		if err != nil {
			return nil, err
		}
		for _, m := range msgs {
			m.Index += lo
			out = append(out, m)
		}
	}
	return out, nil
}

// MessageBits returns the wire size of one generation-coded packet in
// bits: GenSize coefficients + payload symbols + the generation tag.
func (c GenConfig) MessageBits() int {
	bitsPerSym := 1
	for v := 2; v < c.Inner.Field.Order(); v <<= 1 {
		bitsPerSym++
	}
	r := c.Inner.PayloadLen
	if r == 0 {
		r = 1
	}
	tag := 1
	for v := 2; v < c.Generations(); v <<= 1 {
		tag++
	}
	return (c.GenSize+r)*bitsPerSym + tag
}
