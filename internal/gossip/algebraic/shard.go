package algebraic

import (
	"math/bits"
	"math/rand/v2"
	"sync"

	"algossip/internal/core"
	"algossip/internal/rlnc"
)

// Sharded execution (sim.ShardedProtocol) for the algebraic protocol.
//
// The classic wake loop threads one RNG through every wakeup in node
// order, which is inherently serial. Sharded mode replaces it with a
// semantics whose trajectory cannot depend on how nodes are partitioned
// across workers:
//
//   - Randomness: node v's wakeup draws only from v's private stream,
//     derived as SplitSeed(shardSeed, v) — the finest-grained "per-shard"
//     derivation, one stream per node, so the engine's word partition
//     cannot influence any draw.
//   - Staging: node v's wakeup writes only slots 2v (v's send, or the
//     pull it requests) and 2v+1 (the exchange reply), so no append
//     order exists to race on.
//   - Commit: after all workers return, slots are applied in ascending
//     node order on one goroutine — the deterministic merge.
//
// Within a synchronous round all decoder state is frozen (applies happen
// only at commit), so concurrent wakeups read a consistent snapshot; the
// only shared mutable memory is the emit scratch inside a source node's
// matrix, guarded by a per-node lock that serializes emits *from* the
// same node without affecting any drawn value.
//
// Because the per-node streams are new, a sharded trajectory differs
// from the classic serial one for the same seed; it is byte-identical
// across shard counts, which is the contract tests pin.

// Slot states, written during the wake phase and consumed at commit.
const (
	slotEmpty   uint8 = iota
	slotPacket        // a real combination awaits delivery
	slotUseless       // verdict predetermined at send time (receiver full)
	slotDropped       // lost in flight (LossRate)
)

type shardSlot struct {
	state uint8
	to    core.NodeID
}

// shardCore is Protocol's sharded executor: it owns scheduling, staging
// and retirement, and drives the protocol's nodes, selector, action, loss
// rate and traffic counters directly.
type shardCore struct {
	p *Protocol

	n        int
	rngs     []*rand.Rand     // per-node streams: rngs[v] = NewRand(SplitSeed(seed, v))
	locks    []sync.Mutex     // per-node emit guards (matrix scratch)
	slots    []shardSlot      // 2 per node: [2v] send/pull, [2v+1] exchange reply
	slotPkts []rlnc.GenPacket // one pooled packet per slot; inner packets appear on first emit

	// retire enables sparse execution on static topologies: saturated
	// nodes (full rank, all neighbors full — their contacts can no longer
	// change any state or verdict beyond a constant useless tax) and
	// dormant nodes (rank 0, all neighbors rank 0 — their contacts are
	// no-ops) stop waking. Both conditions are evaluated against
	// round-start state, so the decision is deterministic, and both are
	// monotone on a static topology, so a retired node never needs to
	// wake again; dormant nodes are re-activated the moment a neighbor
	// gains rank.
	retire bool
	active []uint64 // wake bitmap, bit v of word v/64
	woke   []uint64 // round-start snapshot commit iterates while mutating active
}

func newShardCore(p *Protocol, seed uint64, retire bool) *shardCore {
	n := len(p.nodes)
	sc := &shardCore{
		p: p, n: n, retire: retire,
		rngs:     make([]*rand.Rand, n),
		locks:    make([]sync.Mutex, n),
		slots:    make([]shardSlot, 2*n),
		slotPkts: make([]rlnc.GenPacket, 2*n),
	}
	for v := range sc.rngs {
		sc.rngs[v] = core.NewRand(core.SplitSeed(seed, uint64(v)))
	}
	return sc
}

// activeWords returns the wake bitmap, building it on first use (after
// seeding, before the first round).
func (sc *shardCore) activeWords() []uint64 {
	if sc.active == nil {
		words := (sc.n + 63) / 64
		sc.active = make([]uint64, words)
		sc.woke = make([]uint64, words)
		for v := 0; v < sc.n; v++ {
			sc.active[v/64] |= 1 << (v % 64)
		}
		if sc.retire {
			for v := 0; v < sc.n; v++ {
				if sc.inert(core.NodeID(v)) {
					sc.clear(core.NodeID(v))
				}
			}
		}
	}
	return sc.active
}

func (sc *shardCore) set(v core.NodeID)   { sc.active[v/64] |= 1 << (v % 64) }
func (sc *shardCore) clear(v core.NodeID) { sc.active[v/64] &^= 1 << (v % 64) }

func (sc *shardCore) rank(v core.NodeID) int  { return sc.p.nodes[v].Rank() }
func (sc *shardCore) full(v core.NodeID) bool { return sc.p.nodes[v].CanDecode() }

// inert reports whether v is dormant or saturated at construction time.
func (sc *shardCore) inert(v core.NodeID) bool {
	switch {
	case sc.rank(v) == 0:
		for _, u := range sc.p.g.Neighbors(v) {
			if sc.rank(u) > 0 {
				return false
			}
		}
		return true
	case sc.full(v):
		for _, u := range sc.p.g.Neighbors(v) {
			if !sc.full(u) {
				return false
			}
		}
		return true
	}
	return false
}

// wakeRange performs the wakeups of every active node in the bitmap word
// range [lo, hi). Safe to call concurrently for disjoint ranges.
func (sc *shardCore) wakeRange(lo, hi int) {
	for w := lo; w < hi; w++ {
		word := sc.active[w]
		base := w * 64
		for word != 0 {
			v := core.NodeID(base + bits.TrailingZeros64(word))
			word &= word - 1
			sc.wake(v)
		}
	}
}

func (sc *shardCore) wake(v core.NodeID) {
	rng := sc.rngs[v]
	u := sc.p.sel.Partner(v, rng)
	if u == core.NilNode {
		return
	}
	switch sc.p.cfg.Action {
	case core.Push:
		sc.send(v, u, rng, 2*int(v))
	case core.Pull:
		sc.send(u, v, rng, 2*int(v))
	default: // Exchange
		sc.send(v, u, rng, 2*int(v))
		sc.send(u, v, rng, 2*int(v)+1)
	}
}

// send stages a transmission from -> to in the given slot. All randomness
// comes from the waking node's stream, never the source's, so a node
// emitting on behalf of several contacts in one round stays
// deterministic. Ranks are frozen for the whole wake phase, so the
// rank-0 and full-rank checks are stable snapshots.
func (sc *shardCore) send(from, to core.NodeID, rng *rand.Rand, slot int) {
	if sc.rank(from) == 0 {
		return // nothing to say, no randomness drawn
	}
	s := &sc.slots[slot]
	if sc.full(to) {
		// The verdict is predetermined; unlike the classic path's
		// SkipEmit there is no randomness parity to maintain (no other
		// node reads this stream), so no draw happens at all.
		s.state, s.to = slotUseless, to
		return
	}
	sc.locks[from].Lock()
	ok := sc.p.nodes[from].EmitInto(rng, &sc.slotPkts[slot])
	sc.locks[from].Unlock()
	if !ok {
		return // unreachable: rank checked above
	}
	if loss := sc.p.cfg.LossRate; loss > 0 && rng.Float64() < loss {
		s.state = slotDropped
		return
	}
	s.state, s.to = slotPacket, to
}

// commit applies every staged slot in ascending node order and updates
// the wake bitmap for the next round. It iterates a snapshot of the
// round's bitmap because retirement clears bits mid-pass and every node
// that woke must have its slots drained.
func (sc *shardCore) commit() {
	copy(sc.woke, sc.active)
	for w, word := range sc.woke {
		base := w * 64
		for word != 0 {
			v := base + bits.TrailingZeros64(word)
			word &= word - 1
			sc.commitSlot(2 * v)
			sc.commitSlot(2*v + 1)
		}
	}
}

func (sc *shardCore) commitSlot(i int) {
	s := &sc.slots[i]
	switch s.state {
	case slotEmpty:
		return
	case slotUseless:
		sc.p.traffic.Sent++
		sc.p.traffic.Useless++
	case slotDropped:
		sc.p.traffic.Sent++
		sc.p.traffic.Dropped++
	case slotPacket:
		sc.p.traffic.Sent++
		to := s.to
		wasZero := sc.retire && sc.rank(to) == 0
		if sc.p.nodes[to].ReceiveOwned(&sc.slotPkts[i]) {
			sc.p.traffic.Helpful++
			sc.p.refreshDone(to)
			if sc.retire {
				if wasZero {
					sc.onRankUp(to)
				}
				if sc.full(to) {
					sc.onFull(to)
				}
			}
		} else {
			sc.p.traffic.Useless++
		}
	}
	s.state = slotEmpty
}

// onRankUp re-activates a node that just left rank 0, plus any neighbor
// that was dormant only because all of *its* neighbors (including this
// node) were empty.
func (sc *shardCore) onRankUp(v core.NodeID) {
	sc.set(v)
	for _, u := range sc.p.g.Neighbors(v) {
		if sc.rank(u) == 0 {
			sc.set(u)
		}
	}
}

// onFull checks v and its full neighbors for saturation after v reached
// full rank.
func (sc *shardCore) onFull(v core.NodeID) {
	sc.maybeRetireFull(v)
	for _, u := range sc.p.g.Neighbors(v) {
		if sc.full(u) {
			sc.maybeRetireFull(u)
		}
	}
}

func (sc *shardCore) maybeRetireFull(v core.NodeID) {
	for _, u := range sc.p.g.Neighbors(v) {
		if !sc.full(u) {
			return
		}
	}
	sc.clear(v)
}
