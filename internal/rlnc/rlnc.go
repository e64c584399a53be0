// Package rlnc implements random linear network coding, the message content
// of algebraic gossip (paper Section 2, "Random Linear Network Coding").
//
// There are k initial messages x_1..x_k, each a vector of r symbols over
// F_q. Every transmitted packet is a random linear combination of all
// packets stored at the sender: it carries the k coefficients of the
// combination and the combined r-symbol payload, for a total of
// (k + r)·log2(q) bits. A node stores only packets that are linearly
// independent of what it already holds (helpful messages, Definition 3);
// once its coefficient matrix reaches rank k it solves the linear system
// and recovers all k initial messages.
//
// Three backends share one API: a generic byte-row backend (one symbol
// per byte, any field), a packed GF(2) bitset backend used whenever the
// field has order 2, and a bit-sliced backend for the other binary
// extension fields GF(2^m). The field and the kernel tier active at
// construction pick one (Config.backend): a GF(2^m) decoder is byte rows
// where the tier has vector byte kernels (avx2, gfni, gfni512) — the smaller
// footprint wins a trial there — and bit-sliced on the pure-Go tier
// (scalar), where dst += c*src as at most m² plane XORs beats k table
// gathers.
// Helpfulness (and hence every stopping time) depends only on coefficient
// vectors, and all backends consume protocol randomness identically, so
// backend selection never changes fixed-seed trajectories.
//
// Memory contract for the hot path: EmitInto fills a caller-owned Packet
// whose backing arrays are reused, Receive/ReceiveOwned never retain
// packet memory (surviving rows are copied into matrix-owned arenas), and
// WouldHelp reduces in matrix scratch. A protocol that recycles packets
// through a freelist therefore runs the steady-state send/receive cycle
// with zero allocations.
//
// An emit only reads its decoder: EmitInto, DrawInto and Fill write the
// caller's packet, factor buffer and stream and nothing the node owns, so
// concurrent emits from one node into distinct packets are safe as long
// as nothing is received meanwhile. Receive, ReceiveOwned and WouldHelp
// write the decoder and are not.
package rlnc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"

	"algossip/internal/core"
	"algossip/internal/gf"
	"algossip/internal/linalg"
)

// ErrCannotDecode is returned by Decode before the node has accumulated k
// independent equations.
var ErrCannotDecode = errors.New("rlnc: rank below k, cannot decode yet")

// Config describes one RLNC deployment: the field, the number of unknowns
// k, and the payload length r in field symbols.
type Config struct {
	// Field is the coefficient field F_q.
	Field gf.Field
	// K is the number of initial messages (unknowns).
	K int
	// PayloadLen is r, the number of field symbols per message payload.
	// Ignored in rank-only mode.
	PayloadLen int
	// RankOnly drops payloads and tracks only coefficient vectors.
	RankOnly bool
	// ForceGeneric selects the generic byte-row backend whatever the
	// field and tier (testing and cross-validation only — the backends
	// are trajectory-identical).
	ForceGeneric bool
}

func (c Config) validate() error {
	if c.Field == nil {
		return errors.New("rlnc: nil field")
	}
	if c.K <= 0 {
		return fmt.Errorf("rlnc: k must be positive, got %d", c.K)
	}
	if !c.RankOnly && c.PayloadLen <= 0 {
		return fmt.Errorf("rlnc: payload length must be positive, got %d", c.PayloadLen)
	}
	return nil
}

// backend names the decoder a node runs on.
type backend uint8

const (
	backendGeneric backend = iota // linalg.RankMatrix: byte rows, any field
	backendBit                    // linalg.BitMatrix: packed GF(2)
	backendSliced                 // linalg.SlicedMatrix: bit-sliced GF(2^m), m > 1
)

// backend is the whole selection rule, a function of the field and the
// kernel tier active when the node is constructed — later tier changes
// move a node's kernels, never its layout. Order 2 is the packed bit
// backend. A binary extension field is byte rows where the tier has
// vector byte kernels: hot, the two layouts are close there, but a sliced
// k=128 GF(256) decoder is 80 KiB against 16 KiB of byte rows and a trial
// is footprint-bound. On the pure-Go tier a byte row costs k table gathers
// and sliced wins. No k or q threshold: byte rows won or tied every
// (q, k) measured in a trial (DESIGN.md "Row layouts"). Everything else
// is byte rows.
func (c Config) backend(tier gf.Tier) backend {
	if c.ForceGeneric {
		return backendGeneric
	}
	if c.Field.Order() == 2 {
		return backendBit
	}
	if _, ok := c.Field.(*gf.GF2m); ok && tier < gf.TierAVX2 {
		return backendSliced
	}
	return backendGeneric
}

// extra returns the augmented payload width in bytes (0 in rank-only mode).
func (c Config) extra() int {
	if c.RankOnly {
		return 0
	}
	return c.PayloadLen
}

// Message is an initial (decoded) message: its index in 1..k (zero-based
// here) and its payload.
type Message struct {
	// Index identifies the unknown x_{Index+1}.
	Index int
	// Payload holds r field symbols, one byte-encoded symbol per byte.
	Payload []byte
}

// Packet is one transmitted coded message. The zero value is valid: the
// emit path (EmitInto) sizes the backing arrays on first use and reuses
// them afterwards, which is what makes pooled packets allocation-free.
type Packet struct {
	// Coeffs has length k (generic backend). Nil in bit and sliced modes.
	Coeffs []gf.Elem
	// Bits is the packed k-bit coefficient vector (bit mode). Nil otherwise.
	Bits linalg.BitVec
	// Sliced is the bit-sliced coefficient vector (sliced GF(2^m) mode):
	// m planes of SlicedWords(k) packed words. Nil otherwise.
	Sliced linalg.SlicedVec
	// Payload is the combined payload row, combined with the field's bulk
	// kernels (nil in rank-only and sliced modes).
	Payload []byte
	// SlicedPay is the payload row of a sliced-mode packet with payloads:
	// m planes of SlicedWords(r) packed words. Nil otherwise.
	SlicedPay linalg.SlicedVec
	// Corrupt marks a packet whose payload no longer matches its coefficient
	// vector — the detectable-pollution model for Byzantine senders. The
	// receive screens reject such packets (after the verification work the
	// protocol layer accounts for); honest emit paths always clear it.
	Corrupt bool

	// field is the field Sliced and SlicedPay are sliced over, stamped by
	// the node that filled them (EmitInto, EmitReplayInto, Adapt) for
	// ExpandCoeffs/ExpandPayload.
	field *gf.GF2m
}

// IsZero reports whether the packet's coefficient vector is all-zero (such
// packets carry no information and are never helpful).
func (p *Packet) IsZero() bool {
	if p.Bits != nil {
		return p.Bits.IsZero()
	}
	if p.Sliced != nil {
		return p.Sliced.IsZero()
	}
	return gf.IsZeroVector(p.Coeffs)
}

// ExpandCoeffs returns the packet's coefficient vector in generic []Elem
// form, expanding packed bits or sliced planes when needed — the
// wire-format bridge for transports that serialize one coefficient per
// symbol. It allocates for bit and sliced packets (which must come from a
// node's emit or Adapt); boundary code only.
func (p *Packet) ExpandCoeffs(k int) []gf.Elem {
	if p.Bits != nil {
		out := make([]gf.Elem, k)
		for i := range out {
			if p.Bits.Get(i) {
				out[i] = 1
			}
		}
		return out
	}
	if p.Sliced != nil {
		out := make([]gf.Elem, k)
		p.field.UnpackSliced(gf.AsBytes(out), p.Sliced)
		return out
	}
	return p.Coeffs
}

// ExpandPayload returns the packet's payload row in byte-encoded wire
// form for a payload width of r symbols, unpacking a sliced packet's
// planes. A non-positive width returns nil even for a payload-carrying
// sliced packet (a rank-only peer requesting zero symbols — the
// cross-backend Adapt path). It allocates for sliced packets; boundary
// code only.
func (p *Packet) ExpandPayload(r int) []byte {
	if p.SlicedPay == nil {
		return p.Payload
	}
	if r <= 0 {
		return nil
	}
	out := make([]byte, r)
	p.field.UnpackSliced(out, p.SlicedPay)
	return out
}

// packCoeffs packs a generic GF(2) coefficient vector into a BitVec. It
// reports false when any coefficient is not 0 or 1 (the vector is not a
// valid GF(2) row). Boundary code only; the hot path stays packed.
func packCoeffs(coeffs []gf.Elem) (linalg.BitVec, bool) {
	v := linalg.NewBitVec(len(coeffs))
	for i, c := range coeffs {
		switch c {
		case 0:
		case 1:
			v.Set(i)
		default:
			return nil, false
		}
	}
	return v, true
}

// Node is the per-gossip-node RLNC state: the matrix of stored equations.
// Emits may run concurrently with one another (see the package's memory
// contract); nothing else is safe for concurrent use, and the concurrent
// runtime wraps it.
type Node struct {
	cfg Config
	mat *linalg.RankMatrix   // generic backend
	bit *linalg.BitMatrix    // bit backend (with payload rows when configured)
	slc *linalg.SlicedMatrix // bit-sliced GF(2^m) backend

	// Buffers sized on first use, which a seed (and in bit mode a Receive
	// of a packet the node does not own) reduces in: words holds a
	// bit-mode row, or a sliced row followed by its payload planes; syms a
	// bit-mode payload or a byte-row node's coefficients. Two slices, not
	// one per use: a large simulation holds a node per generation per
	// graph node.
	scratchWords []uint64
	scratchSyms  []gf.Elem
}

// NewNode returns an empty node for the given configuration.
func NewNode(cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := &Node{cfg: cfg}
	switch cfg.backend(gf.ActiveTier()) {
	case backendBit:
		n.bit = linalg.NewBitMatrixPayload(cfg.K, cfg.extra())
	case backendSliced:
		n.slc = linalg.NewSlicedMatrix(cfg.Field.(*gf.GF2m), cfg.K, cfg.extra())
	default:
		n.mat = linalg.NewRankMatrix(cfg.Field, cfg.K, cfg.extra())
	}
	return n, nil
}

// MustNewNode is NewNode for known-good configurations; it panics on error.
func MustNewNode(cfg Config) *Node {
	n, err := NewNode(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// Reset empties the node for reuse: rank goes to 0, and its decoder's
// arenas and the node's buffers are kept (linalg's Reset), so a reset
// node seeds and receives exactly as a new one of its configuration
// would, without allocating. Its backend is the one it was built with.
func (n *Node) Reset() {
	switch {
	case n.bit != nil:
		n.bit.Reset()
	case n.slc != nil:
		n.slc.Reset()
	default:
		n.mat.Reset()
	}
}

// Fits reports whether the node has the shape NewNode(cfg) would build
// now: the same field order, k, payload width and backend.
func (n *Node) Fits(cfg Config) bool {
	c := n.cfg
	return cfg.Field != nil && c.Field.Order() == cfg.Field.Order() && c.K == cfg.K &&
		c.extra() == cfg.extra() && c.RankOnly == cfg.RankOnly && n.backend() == cfg.backend(gf.ActiveTier())
}

// backend returns the backend the node was built with.
func (n *Node) backend() backend {
	switch {
	case n.bit != nil:
		return backendBit
	case n.slc != nil:
		return backendSliced
	default:
		return backendGeneric
	}
}

// bitScratch returns the bit-mode reduce buffers, sizing them once.
func (n *Node) bitScratch() (linalg.BitVec, []byte) {
	if n.scratchWords == nil {
		n.scratchWords = make([]uint64, n.bit.Words())
		n.scratchSyms = make([]gf.Elem, n.cfg.extra())
	}
	return n.scratchWords, gf.AsBytes(n.scratchSyms)
}

// BitMode reports whether this node uses the packed GF(2) backend (its
// packets carry Bits instead of Coeffs).
func (n *Node) BitMode() bool { return n.bit != nil }

// SlicedMode reports whether this node uses the bit-sliced GF(2^m)
// backend (its packets carry Sliced/SlicedPay instead of Coeffs/Payload).
func (n *Node) SlicedMode() bool { return n.slc != nil }

// Rank returns the dimension of the node's equation space.
func (n *Node) Rank() int {
	switch {
	case n.bit != nil:
		return n.bit.Rank()
	case n.slc != nil:
		return n.slc.Rank()
	default:
		return n.mat.Rank()
	}
}

// CanDecode reports whether the node has reached rank k.
func (n *Node) CanDecode() bool { return n.Rank() == n.cfg.K }

// Seed installs an initial message at this node: the trivial equation
// x_{msg.Index} = msg.Payload. In rank-only mode the payload may be nil.
// The unit row is built in node scratch and the payload copied, never
// retained, so a seed allocates nothing once the decoder's arenas exist.
func (n *Node) Seed(msg Message) {
	if msg.Index < 0 || msg.Index >= n.cfg.K {
		panic(fmt.Sprintf("rlnc: seed index %d out of range [0,%d)", msg.Index, n.cfg.K))
	}
	var payload []byte
	if !n.cfg.RankOnly {
		if len(msg.Payload) != n.cfg.PayloadLen {
			panic(fmt.Sprintf("rlnc: payload length %d, want %d", len(msg.Payload), n.cfg.PayloadLen))
		}
		payload = msg.Payload
	}
	if n.bit != nil {
		// AddPayload consumes its inputs but copies survivors into the
		// matrix arena, so the caller's msg.Payload is copied first.
		v, pay := n.bitScratch()
		clear(v)
		v.Set(msg.Index)
		copy(pay, payload)
		n.bit.AddPayload(v, pay)
		return
	}
	if n.slc != nil {
		stride := n.slc.Stride()
		if n.scratchWords == nil {
			n.scratchWords = make([]uint64, stride+n.slc.PayStride())
		}
		// The unit vector e_Index has the single symbol value 1: only bit
		// plane 0 carries a bit.
		v := linalg.SlicedVec(n.scratchWords[:stride])
		clear(v)
		v[msg.Index/64] |= 1 << (uint(msg.Index) % 64)
		var pay linalg.SlicedVec
		if n.slc.PayStride() > 0 {
			pay = n.scratchWords[stride:]
			n.slc.Field().PackSliced(pay, payload)
		}
		n.slc.AddOwned(v, pay)
		return
	}
	if n.scratchSyms == nil {
		n.scratchSyms = make([]gf.Elem, n.cfg.K)
	}
	// AddOwned reduces the coefficients in place and only reads the
	// payload, copying it into the arena when the row is stored.
	coeffs := n.scratchSyms
	clear(coeffs)
	coeffs[msg.Index] = 1
	n.mat.AddOwned(coeffs, payload)
}

// Emit builds the packet an algebraic-gossip node transmits: a uniformly
// random linear combination of all stored packets. It returns nil when the
// node stores nothing yet (rank 0). Allocates a fresh packet per call;
// hot paths use EmitInto with a pooled packet instead.
func (n *Node) Emit(rng *rand.Rand) *Packet {
	p := &Packet{}
	if !n.EmitInto(rng, p) {
		return nil
	}
	return p
}

// EmitInto fills p with a uniformly random linear combination of all
// stored packets, reusing p's backing arrays (growing them on first use).
// It reports false — drawing no randomness — when the node stores
// nothing yet; p's fields may already have been resized or re-pointed by
// then, so a false return leaves the packet's contents unspecified. The
// emitted trajectory is identical to Emit's. It is DrawInto with no
// factor buffer, which leaves nothing for Fill to do.
func (n *Node) EmitInto(rng *rand.Rand, p *Packet) bool {
	_, ok := n.DrawInto(rng, p, nil)
	return ok
}

// DrawInto is the first half of EmitInto: it sizes p's arrays and draws
// the combination — all the randomness an emit consumes. A byte-row node
// that carries payloads, given facs — the caller's buffer, with room for
// K factors — draws its factors, one per stored row, into it and writes
// nothing else: it leaves p.Coeffs and p.Payload sized but unwritten and
// returns facs[:Rank()] for Fill to build both from. Every other node,
// and this one given no buffer, has nothing worth deferring — no
// payload, a packed decoder whose combination is one pass over both
// halves, or nowhere to keep the factors — and returns the packet
// complete, with no factors.
//
// The halves need not be adjacent: a round-based simulator draws every
// packet of a round into one buffer first and fills them afterwards,
// sender by sender, so that a sender's stored rows are streamed while
// they are still in cache. The node must not store a packet in between
// (Fill panics if its rank moved).
func (n *Node) DrawInto(rng *rand.Rand, p *Packet, facs []gf.Elem) ([]gf.Elem, bool) {
	p.Corrupt = false
	if n.slc != nil {
		p.Coeffs, p.Bits, p.Payload = nil, nil, nil
		p.field = n.slc.Field()
		stride := n.slc.Stride()
		if cap(p.Sliced) >= stride {
			p.Sliced = p.Sliced[:stride]
		} else {
			p.Sliced = make(linalg.SlicedVec, stride)
		}
		if ps := n.slc.PayStride(); ps > 0 {
			if cap(p.SlicedPay) >= ps {
				p.SlicedPay = p.SlicedPay[:ps]
			} else {
				p.SlicedPay = make(linalg.SlicedVec, ps)
			}
		} else {
			p.SlicedPay = nil
		}
		return nil, n.slc.RandomCombinationInto(rng, p.Sliced, p.SlicedPay)
	}
	p.Sliced, p.SlicedPay = nil, nil
	extra := n.cfg.extra()
	if extra > 0 && cap(p.Payload) >= extra {
		p.Payload = p.Payload[:extra]
	} else if extra > 0 {
		p.Payload = make([]byte, extra)
	} else {
		p.Payload = nil
	}
	if n.bit != nil {
		p.Coeffs = nil
		words := n.bit.Words()
		if cap(p.Bits) >= words {
			p.Bits = p.Bits[:words]
		} else {
			p.Bits = make(linalg.BitVec, words)
		}
		return nil, n.bit.RandomCombinationInto(rng, p.Bits, p.Payload)
	}
	p.Bits = nil
	if cap(p.Coeffs) >= n.cfg.K {
		p.Coeffs = p.Coeffs[:n.cfg.K]
	} else {
		p.Coeffs = make([]gf.Elem, n.cfg.K)
	}
	if facs == nil || extra == 0 {
		return nil, n.mat.RandomCombinationInto(rng, p.Coeffs, p.Payload)
	}
	return n.mat.RandomFactorsInto(rng, facs)
}

// Fill is the second half of EmitInto: it writes p's coefficients and
// payload from the factors DrawInto returned for p. With no factors the
// packet was complete already and nothing happens. It panics when the
// node's rank is no longer the factor count — a packet was stored
// between the halves, and the factors no longer name the rows they were
// drawn for.
func (n *Node) Fill(p *Packet, facs []gf.Elem) {
	if len(facs) > 0 {
		n.mat.CombineInto(facs, p.Coeffs, p.Payload)
	}
}

// SkipEmit consumes exactly the randomness EmitInto would draw — one
// coefficient draw per stored row — without building the packet. It
// reports false (drawing nothing) when the node stores nothing yet,
// mirroring EmitInto's return. Simulators call it when the packet's fate
// is already determined (e.g. the receiver is at full rank, where any
// combination is unhelpful), so the trajectory-pinned random stream
// advances identically while the combination work is skipped.
func (n *Node) SkipEmit(rng *rand.Rand) bool {
	rank := n.Rank()
	if rank == 0 {
		return false
	}
	if q := n.cfg.Field.Order(); q&(q-1) == 0 {
		// Every backend draws one Uint64 per stored row over GF(2^m) (IntN
		// of a power-of-two order is exactly one masked Uint64): on a
		// core.NewRand stream that is one O(1) jump, on any other source
		// the draws themselves.
		if g := core.Generator(rng); g != nil {
			g.Skip(rank)
			return true
		}
		for i := 0; i < rank; i++ {
			rng.Uint64()
		}
		return true
	}
	for i := 0; i < rank; i++ {
		gf.Rand(n.cfg.Field, rng)
	}
	return true
}

// EmitReplayInto fills p with a copy of the node's first stored echelon
// row — a syntactically valid packet that is never innovative to anyone
// who has heard this node before: the non-innovative replay behavior of a
// Byzantine sender. It draws no randomness (replay is a fixed function of
// state, so adversarial trials stay deterministic without touching the
// protocol's pinned random stream) and reports false when the node stores
// nothing yet. The row is copied, not aliased: receivers may clobber
// owned packets, and the matrix mutates its rows on later inserts.
func (n *Node) EmitReplayInto(p *Packet) bool {
	if n.Rank() == 0 {
		return false
	}
	p.Corrupt = false
	if n.slc != nil {
		p.Coeffs, p.Bits, p.Payload = nil, nil, nil
		p.field = n.slc.Field()
		p.Sliced = append(p.Sliced[:0], n.slc.Row(0)...)
		if n.slc.PayStride() > 0 {
			p.SlicedPay = append(p.SlicedPay[:0], n.slc.Payload(0)...)
		} else {
			p.SlicedPay = nil
		}
		return true
	}
	p.Sliced, p.SlicedPay = nil, nil
	if n.bit != nil {
		p.Coeffs = nil
		p.Bits = append(p.Bits[:0], n.bit.Row(0)...)
		if n.cfg.extra() > 0 {
			p.Payload = append(p.Payload[:0], n.bit.Payload(0)...)
		} else {
			p.Payload = nil
		}
		return true
	}
	p.Bits = nil
	p.Coeffs = append(p.Coeffs[:0], n.mat.Row(0)...)
	if extra := n.cfg.extra(); extra > 0 {
		p.Payload = slices.Grow(p.Payload[:0], extra)[:extra]
		n.mat.PayloadInto(0, p.Payload)
	} else {
		p.Payload = nil
	}
	return true
}

// Receive processes an incoming packet and reports whether it was helpful,
// i.e. increased the node's rank (Definition 3). Unhelpful packets are
// discarded, exactly as in the paper. The packet is neither modified nor
// retained (reduction happens in node-owned scratch); callers that own
// the packet and want to skip that defensive copy use ReceiveOwned.
func (n *Node) Receive(p *Packet) bool { return n.receive(p, false) }

// ReceiveOwned is Receive for callers that own the packet (pooled hot
// path): reduction happens directly in the packet's backing arrays,
// clobbering their contents, but the arrays are never retained — the
// caller recycles the packet afterwards. Helpfulness, rank evolution and
// randomness are identical to Receive.
func (n *Node) ReceiveOwned(p *Packet) bool { return n.receive(p, true) }

// receive screens p — malformed packets (wrong coefficient or payload
// width, payload symbols at a rank-only node, a byte that is no field
// symbol) can arrive from the network and are rejected instead of letting
// the eliminator panic — and hands it to the backend, which may clobber
// the packet's arrays only when owned.
func (n *Node) receive(p *Packet, owned bool) bool {
	if p == nil || p.Corrupt || p.IsZero() {
		return false
	}
	if n.slc != nil {
		if p.Sliced == nil {
			panic("rlnc: non-sliced packet delivered to sliced-mode node (use Adapt at wire boundaries)")
		}
		if !n.validSliced(p.Sliced) {
			return false
		}
		ps := n.slc.PayStride()
		if len(p.SlicedPay) != ps {
			return false // malformed payload width (a rank-only node takes none)
		}
		var pay linalg.SlicedVec
		if ps > 0 {
			pay = p.SlicedPay
		}
		if owned {
			return n.slc.AddOwned(p.Sliced, pay)
		}
		// SlicedMatrix.Add reduces in matrix-owned scratch.
		return n.slc.Add(p.Sliced, pay)
	}
	if n.bit != nil {
		if p.Bits == nil {
			panic("rlnc: generic packet delivered to bit-mode node")
		}
		if !n.validBits(p.Bits) {
			return false
		}
		extra := n.cfg.extra()
		if len(p.Payload) != extra || extra > 0 && !n.validSymbols(p.Payload) {
			return false // rank-only: extra is 0 and a packet carrying payload is malformed
		}
		bits, pay := p.Bits, p.Payload[:extra]
		if !owned {
			// BitMatrix reduces its arguments in place: give it node-owned
			// copies.
			bits, pay = n.bitScratch()
			copy(bits, p.Bits)
			copy(pay, p.Payload)
		}
		return n.bit.AddPayload(bits, pay)
	}
	if p.Coeffs == nil {
		panic("rlnc: bit packet delivered to generic-mode node")
	}
	payload, ok := n.screenGeneric(p)
	if !ok {
		return false
	}
	if owned {
		return n.mat.AddOwned(p.Coeffs, payload)
	}
	return n.mat.Add(p.Coeffs, payload)
}

// screenGeneric is the generic backend's malformed-packet screen: exact
// coefficient and payload widths and every byte a field symbol. It
// returns the payload row to eliminate (nil in rank-only mode, whose
// payload width is 0: a packet that carries payload symbols is malformed).
func (n *Node) screenGeneric(p *Packet) (payload []byte, ok bool) {
	if len(p.Coeffs) != n.cfg.K || !n.validSymbols(gf.AsBytes(p.Coeffs)) {
		return nil, false
	}
	if n.cfg.RankOnly {
		return nil, len(p.Payload) == 0
	}
	if len(p.Payload) != n.cfg.PayloadLen || !n.validSymbols(p.Payload) {
		return nil, false
	}
	return p.Payload, true
}

// WouldHelp reports whether the packet would increase this node's rank,
// without storing it. The query reduces in matrix scratch: no allocation,
// no defensive copy, and the packet is not modified.
func (n *Node) WouldHelp(p *Packet) bool {
	if p == nil || p.Corrupt || p.IsZero() {
		return false
	}
	if n.slc != nil {
		if !n.validSliced(p.Sliced) {
			return false
		}
		return n.slc.WouldHelp(p.Sliced)
	}
	if n.bit != nil {
		if !n.validBits(p.Bits) {
			return false
		}
		return n.bit.WouldHelp(p.Bits)
	}
	if len(p.Coeffs) != n.cfg.K || !n.validSymbols(gf.AsBytes(p.Coeffs)) {
		return false
	}
	return n.mat.WouldHelp(p.Coeffs)
}

// validBits reports whether a bit-mode coefficient vector has exactly the
// packed width for k unknowns with no stray bits past index k-1 — the same
// malformed-packet screen the generic path applies to Coeffs/Payload.
func (n *Node) validBits(v linalg.BitVec) bool {
	words := (n.cfg.K + 63) / 64
	if len(v) != words {
		return false
	}
	if rem := n.cfg.K % 64; rem != 0 && v[words-1]>>uint(rem) != 0 {
		return false
	}
	return true
}

// validSymbols is the same screen for byte rows, one rule on every
// backend: a coefficient or payload byte that is no field symbol (>= q)
// makes the packet malformed — Adapt returns nil and the receive paths
// report it unhelpful — just as validBits rejects stray bits instead of
// masking them. The eliminators index q-sized tables with these bytes,
// so an unscreened one panics. GF(256) skips the scan (every byte is a
// symbol), and native sliced rows need none (m planes cannot hold more
// than m bits).
func (n *Node) validSymbols(row []byte) bool {
	q := n.cfg.Field.Order()
	if q == 256 {
		return true
	}
	if q&(q-1) != 0 {
		for _, s := range row {
			if int(s) >= q {
				return false
			}
		}
		return true
	}
	// Power-of-two order: the symbols are all below q exactly when no byte
	// has a bit at or above log2(q), so OR-fold eight bytes at a time.
	var acc uint64
	for ; len(row) >= 8; row = row[8:] {
		acc |= binary.LittleEndian.Uint64(row)
	}
	for _, s := range row {
		acc |= uint64(s)
	}
	return acc&(uint64(0xFF&^(q-1))*0x0101010101010101) == 0
}

// validSliced is the sliced-mode malformed-packet screen: the vector must
// have exactly m planes of SlicedWords(k) words with no stray bits past
// column k-1 in any plane.
func (n *Node) validSliced(v linalg.SlicedVec) bool {
	if len(v) != n.slc.Stride() {
		return false
	}
	words := n.slc.Words()
	if rem := n.cfg.K % 64; rem != 0 {
		for j := words - 1; j < len(v); j += words {
			if v[j]>>uint(rem) != 0 {
				return false
			}
		}
	}
	return true
}

// Adapt converts a wire-format packet into this node's native
// representation: a generic-coefficient packet arriving at a bit-mode
// node is packed, one arriving at a sliced-mode node is bit-sliced into
// a fresh packet the caller owns, a bit or sliced packet arriving at a
// generic node is expanded, and a packet already in native form is
// returned unchanged — on a generic node the wire form is the native
// one. A wire packet carrying a byte that is no field symbol is
// malformed on every backend (validSymbols) and adapts to nil.
// Transports that pin a one-coefficient-per-symbol wire format call this
// before Receive.
func (n *Node) Adapt(p *Packet) *Packet {
	if p == nil {
		return nil
	}
	if p.Coeffs != nil && !(n.validSymbols(gf.AsBytes(p.Coeffs)) && n.validSymbols(p.Payload)) {
		return nil
	}
	if n.slc != nil {
		if p.Sliced != nil {
			return p
		}
		if p.Bits != nil || len(p.Coeffs) != n.cfg.K {
			return nil // a bit-mode packet can only come from a mismatched field
		}
		extra := n.cfg.extra()
		if len(p.Payload) != extra {
			return nil // screened before any row is allocated or packed
		}
		f := n.slc.Field()
		out := &Packet{Sliced: make(linalg.SlicedVec, n.slc.Stride()), Corrupt: p.Corrupt, field: f}
		f.PackSliced(out.Sliced, gf.AsBytes(p.Coeffs))
		if extra > 0 {
			out.SlicedPay = make(linalg.SlicedVec, n.slc.PayStride())
			f.PackSliced(out.SlicedPay, p.Payload)
		}
		return out
	}
	if n.bit != nil && p.Bits == nil {
		if p.Sliced != nil || len(p.Coeffs) != n.cfg.K {
			return nil
		}
		bits, ok := packCoeffs(p.Coeffs)
		if !ok {
			return nil
		}
		return &Packet{Bits: bits, Payload: p.Payload, Corrupt: p.Corrupt}
	}
	if n.bit == nil && (p.Bits != nil || p.Sliced != nil) {
		return &Packet{Coeffs: p.ExpandCoeffs(n.cfg.K), Payload: p.ExpandPayload(n.cfg.extra()), Corrupt: p.Corrupt}
	}
	return p
}

// HelpfulTo reports whether this node is a *helpful node* for other
// (Definition 3): whether some combination this node can construct is
// independent of everything other has — equivalently, whether this node's
// equation space is not contained in other's.
func (n *Node) HelpfulTo(other *Node) bool {
	if n.bit != nil {
		for i := 0; i < n.bit.Rank(); i++ {
			// Row views are safe here: WouldHelp reduces in scratch and
			// never mutates its input.
			if other.bit.WouldHelp(n.bit.Row(i)) {
				return true
			}
		}
		return false
	}
	if n.slc != nil {
		for i := 0; i < n.slc.Rank(); i++ {
			if other.slc.WouldHelp(n.slc.Row(i)) {
				return true
			}
		}
		return false
	}
	for i := 0; i < n.mat.Rank(); i++ {
		if other.mat.WouldHelp(n.mat.Row(i)) {
			return true
		}
	}
	return false
}

// Decode solves the linear system and returns all k initial messages in
// index order. It returns ErrCannotDecode when rank < k, and an error in
// rank-only mode (there are no payloads to recover).
func (n *Node) Decode() ([]Message, error) {
	if n.cfg.RankOnly {
		return nil, errors.New("rlnc: decode unavailable in rank-only mode")
	}
	if !n.CanDecode() {
		return nil, ErrCannotDecode
	}
	var payloads [][]byte
	var err error
	switch {
	case n.bit != nil:
		payloads, err = n.bit.Solve()
	case n.slc != nil:
		payloads, err = n.slc.Solve()
	default:
		payloads, err = n.mat.Solve()
	}
	if err != nil {
		return nil, fmt.Errorf("rlnc: decode: %w", err)
	}
	out := make([]Message, n.cfg.K)
	for i := range out {
		out[i] = Message{Index: i, Payload: payloads[i]}
	}
	return out, nil
}
