package algebraic

import (
	"math/bits"
	"math/rand/v2"
	"slices"
	"sync/atomic"

	"algossip/internal/core"
	"algossip/internal/gossip"
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
//   - Commit: after all workers return, every receiver sees its own
//     packets in ascending slot order — the deterministic merge.
//
// Within a synchronous round all decoder state is frozen (applies happen
// only at commit), so concurrent wakeups read a consistent snapshot, and
// the wake phase shares no mutable memory: an emit only reads its source's
// decoder and writes the waker's stream and slot packet (rlnc's memory
// contract), so two workers may emit from one source at once.
//
// Because the per-node streams are new, a sharded trajectory differs
// from the classic serial one for the same seed; it is byte-identical
// across shard counts, which is the contract tests pin.
//
// # The commit is partitioned by receiver
//
// The reference semantics is the serial one: walk the slots in ascending
// order and, per delivered packet, reduce it into the receiver, count it,
// stamp the receiver's completion, and update the wake bitmap. Only the
// first of those is expensive, and it touches nothing but the receiver:
// a GenNode reads and writes its own decoders and the packet it is
// handed. So commit runs in two steps.
//
// Step 1, parallel: w workers each walk the round's woke snapshot in
// ascending slot order. A worker applies the slotPacket slots whose
// receiver it owns — receivers are dealt out in 64-node blocks,
// (to>>6) % w, so a spatial frontier on a ring or grid spreads over all
// workers and adjacent nodes (allocated together) stay with one — which
// gives every receiver exactly the packets, in exactly the order, of the
// serial walk. Counter-only slots (slotUseless, slotDropped) have no
// receiver state to order against and are counted by the owner of the
// *waker's* block. A worker writes only its own counters and event list:
// never the protocol's ledger (counters, done stamps, observer) or the
// bitmap.
//
// Step 2, serial and short: sum the counters, merge the event lists by
// slot, and replay them — first every completion (refreshDone, in slot
// order, so NodeDone callbacks and done stamps are the serial ones),
// then every onRankUp, then every onFull.
//
// Why deferring retirement to end-of-round state changes nothing. Ranks
// only rise inside a commit, so "rank 0" and "full" are monotone
// predicates of commit time. Write t(e) for the serial time of event e.
//
//   - The nodes set are the same. Interleaved, a rise of v at time t
//     sets v and every neighbour u with rank 0 at t; deferred, v and
//     every u with rank 0 at the end. Rank 0 at the end implies rank 0
//     at t; and a u with rank 0 at t but not at the end rose in this
//     round itself, so its own rise sets it either way.
//   - The nodes cleared are the same. Both versions clear x exactly when
//     some v in x's closed neighbourhood N[x] filled this round, x is
//     full and all of N[x] is full — judged at t(v) or at the end.
//     Interleaved implies deferred by monotonicity. Conversely, if all of
//     N[x] is full at the end and some member filled this round, take
//     the last member y to fill: at t(y) the serial walk runs onFull(y),
//     which examines x (x is y, or a neighbour of y that is already
//     full) and finds all of N[x] full, so it clears x then.
//   - Per node, every set precedes every clear in the serial walk: a
//     node is set only while it or the rising neighbour still has rank
//     0 (onRankUp runs before onFull when k = 1 does both in one slot),
//     and cleared only once it is full. All sets then all clears — the
//     deferred order — therefore leaves every bit as the serial walk
//     does: 0 if the node was cleared, else 1 if it was set, else
//     unchanged.
//
// w is the number of WakeShard calls the engine made this round: the
// commit is as wide as the wake phase was, with nothing to configure.
// Shards=1, and a bitmap of one word (which the engine never splits),
// give w = 1, and w = 1 runs step 1 on the calling goroutine — it is the
// same code, not a second path.

// Slot states, written during the wake phase and consumed at commit.
const (
	slotEmpty   uint8 = iota
	slotPacket        // a real combination awaits delivery
	slotUseless       // verdict predetermined at send time (receiver full)
	slotDropped       // lost in flight (LossRate)
)

// shardSlot is one staged transmission. wake resets both of a node's
// slots before staging, and commit reads only the slots of nodes that
// woke, so commit never writes a slot. to is meaningful for slotPacket
// only: send leaves it stale on slotDropped and commit never reads it for
// a counter-only state (those are attributed to the waker, slot>>1).
// Every commit worker scans every woke slot, so a slot is kept to 8 bytes.
type shardSlot struct {
	state uint8
	to    int32
}

// commitEvent is a delivery the serial epilogue must act on: the receiver
// of slot left rank 0 (rose) and/or reached full rank (full).
type commitEvent struct {
	slot       int32
	rose, full bool
}

// receiver returns the node e's packet was delivered to (commit leaves
// slots intact, so the slot still names it).
func (sc *shardCore) receiver(e commitEvent) core.NodeID {
	return core.NodeID(sc.slots[e.slot].to)
}

// commitWorker is one worker's step-1 output, reused across rounds, one
// heap object each.
type commitWorker struct {
	traffic gossip.Traffic
	events  []commitEvent
}

// shardCore is Protocol's sharded executor: it owns scheduling, staging
// and retirement, and drives the protocol's nodes, selector, action, loss
// rate and traffic counters directly.
type shardCore struct {
	p *Protocol

	n        int
	rngs     []*rand.Rand     // per-node streams: rngs[v] = NewRand(SplitSeed(seed, v))
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

	wakeCalls atomic.Int32    // WakeShard calls since the last commit: the commit's width
	width     int             // workers of the commit in flight
	workers   []*commitWorker // grown to the widest commit seen
	merged    []commitEvent   // the workers' events in slot order (width > 1)
	crew      crew[*shardCore]
}

func newShardCore(p *Protocol, seed uint64, retire bool) *shardCore {
	n := len(p.nodes)
	sc := &shardCore{
		p: p, n: n, retire: retire,
		rngs:     make([]*rand.Rand, n),
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
	sc.wakeCalls.Add(1)
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
	sc.slots[2*v].state, sc.slots[2*v+1].state = slotEmpty, slotEmpty
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
		s.state, s.to = slotUseless, int32(to)
		return
	}
	if !sc.p.nodes[from].EmitInto(rng, &sc.slotPkts[slot]) {
		return // unreachable: rank checked above
	}
	if loss := sc.p.cfg.LossRate; loss > 0 && rng.Float64() < loss {
		s.state = slotDropped // s.to stays stale; commit counts this slot by its waker
		return
	}
	s.state, s.to = slotPacket, int32(to)
}

// commit applies the round's staged slots — step 1 on as many workers as
// the round had WakeShard calls, step 2 here — and updates the wake
// bitmap for the next round. It iterates a snapshot of the round's bitmap
// because retirement clears bits and every node that woke must have its
// slots applied. It trusts that snapshot: the round's wakeRange calls must
// have covered every word of the bitmap, because only wake resets a
// node's slots — an active node that was not woken this round would have
// the packets of its last wake applied again.
func (sc *shardCore) commit() {
	copy(sc.woke, sc.active)
	w := max(int(sc.wakeCalls.Swap(0)), 1)
	for len(sc.workers) < w {
		sc.workers = append(sc.workers, &commitWorker{})
	}
	sc.width = w
	sc.crew.run(w, sc, (*shardCore).apply)

	events := sc.workers[0].events
	if w > 1 {
		sc.merged = sc.merged[:0]
		for _, cw := range sc.workers[:w] {
			sc.merged = append(sc.merged, cw.events...)
		}
		slices.SortFunc(sc.merged, func(a, b commitEvent) int { return int(a.slot - b.slot) })
		events = sc.merged
	}
	for _, cw := range sc.workers[:w] {
		sc.p.Counts.Add(cw.traffic)
	}
	for _, e := range events {
		if e.full {
			sc.p.refreshDone(sc.receiver(e))
		}
	}
	if !sc.retire {
		return
	}
	for _, e := range events {
		if e.rose {
			sc.onRankUp(sc.receiver(e))
		}
	}
	for _, e := range events {
		if e.full {
			sc.onFull(sc.receiver(e))
		}
	}
}

// apply is step 1 for worker j of sc.width: one pass over the woke
// snapshot in ascending slot order, taking the packets whose receiver j
// owns and the counter-only slots whose waker j owns.
func (sc *shardCore) apply(j int) {
	cw := sc.workers[j]
	cw.traffic = gossip.Traffic{}
	cw.events = cw.events[:0]
	width := sc.width
	for w, word := range sc.woke {
		wakerMine := w%width == j
		base := w * 64
		for word != 0 {
			v := base + bits.TrailingZeros64(word)
			word &= word - 1
			for i := 2 * v; i <= 2*v+1; i++ {
				switch s := &sc.slots[i]; s.state {
				case slotUseless:
					if wakerMine {
						cw.traffic.Sent++
						cw.traffic.Useless++
					}
				case slotDropped:
					if wakerMine {
						cw.traffic.Sent++
						cw.traffic.Dropped++
					}
				case slotPacket:
					if int(s.to>>6)%width == j {
						sc.deliver(cw, i, core.NodeID(s.to))
					}
				}
			}
		}
	}
}

// deliver reduces slot i's packet into its receiver and records what the
// epilogue needs to know about it.
func (sc *shardCore) deliver(cw *commitWorker, i int, to core.NodeID) {
	cw.traffic.Sent++
	rose := sc.retire && sc.rank(to) == 0
	if !sc.p.nodes[to].ReceiveOwned(&sc.slotPkts[i]) {
		cw.traffic.Useless++
		return
	}
	cw.traffic.Helpful++
	if full := sc.full(to); rose || full {
		cw.events = append(cw.events, commitEvent{slot: int32(i), rose: rose, full: full})
	}
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
