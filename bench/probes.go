package main

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"algossip/internal/core"
	"algossip/internal/gf"
	"algossip/internal/graph"
	"algossip/internal/harness"
	"algossip/internal/linalg"
	"algossip/internal/resultstore"
	"algossip/internal/rlnc"
	"algossip/internal/runtime"
	"algossip/internal/sim"
	"algossip/internal/wire"
)

// The micro-probes are the bottom rungs of the ladder: exported functions
// of single layers, timed at the sizes the workloads really use (stated
// per probe). GB/s are computed bytes (symbols processed), not measured
// memory traffic. Each probe runs for probeTime.

const probeTime = 100 * time.Millisecond

func gf256() *gf.GF2m { return gf.MustNew(256).(*gf.GF2m) }

// prober times batches of operations for a fixed duration each.
type prober struct {
	d   time.Duration
	rng *rand.Rand
}

// perOp runs batch (which performs and returns a number of operations)
// for the probe duration, after one warm-up batch, and returns ns per
// operation.
func (p *prober) perOp(batch func() int) float64 {
	batch()
	ops := 0
	start := time.Now()
	for time.Since(start) < p.d {
		ops += batch()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// timedOnly is perOp for operations that need untimed preparation before
// every call (a fresh full-rank matrix for Solve): prepare is excluded.
func (p *prober) timedOnly(prepare func(), op func()) float64 {
	var busy time.Duration
	n := 0
	// Bounded in total too: preparation may cost more than the operation.
	for start := time.Now(); n == 0 || (busy < p.d && time.Since(start) < 5*p.d); n++ {
		prepare()
		t0 := time.Now()
		op()
		busy += time.Since(t0)
	}
	return float64(busy.Nanoseconds()) / float64(n)
}

func (p *prober) bytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(p.rng.IntN(256))
	}
	return b
}

// gbps converts ns per operation over n bytes into GB/s.
func gbps(n int, nsPerOp float64) float64 { return float64(n) / nsPerOp }

func runProbes(w *workload, e *env, v map[string]float64) error {
	d := time.Duration(float64(probeTime) * e.scale)
	if d < time.Millisecond {
		d = time.Millisecond
	}
	p := &prober{d: d, rng: core.NewRand(core.SplitSeed(e.seed, 4242))}
	p.gf(v)
	p.linalg(v)
	p.rlnc(w.rlncCfg(), v)
	p.selector(v)
	p.wire(v)
	if err := p.storage(e, v); err != nil {
		return err
	}
	return p.pumps(v)
}

// ------------------------------------------------------------------------ gf

// gf: 4 KiB rows (r = 4096 GF(256) symbols), the payload width of the
// payload_gf256 and live_tcp workloads; working set 8 KiB, L1-resident.
func (p *prober) gf(v map[string]float64) {
	const r = 4096
	f := gf256()
	dst, src := p.bytes(r), p.bytes(r)
	v["gf.addmul_gb_s"] = gbps(r, p.perOp(func() int {
		for c := 1; c < 256; c++ {
			f.AddMulSlice(dst, src, gf.Elem(c))
		}
		return 255
	}))
	words := gf.SlicedWords(r)
	sd, ss := make([]uint64, f.M()*words), make([]uint64, f.M()*words)
	f.PackSliced(sd, dst)
	f.PackSliced(ss, src)
	v["gf.addmul_sliced_gb_s"] = gbps(r, p.perOp(func() int {
		for c := 2; c < 256; c++ { // c = 1 is the plain XOR, probed below
			f.AddMulSliced(sd, ss, words, gf.Elem(c))
		}
		return 254
	}))
	v["gf.xor_words_gb_s"] = gbps(len(sd)*8, p.perOp(func() int {
		for i := 0; i < 256; i++ {
			gf.XorWords(sd, ss)
		}
		return 256
	}))
	v["gf.pack_sliced_gb_s"] = gbps(r, p.perOp(func() int {
		for i := 0; i < 16; i++ {
			f.PackSliced(sd, src)
		}
		return 16
	}))
	v["gf.unpack_sliced_gb_s"] = gbps(r, p.perOp(func() int {
		for i := 0; i < 16; i++ {
			f.UnpackSliced(dst, ss)
		}
		return 16
	}))
}

// -------------------------------------------------------------------- linalg

// linalg: Add is the mean cost of one insert while a matrix is filled
// from empty to full rank with uniformly random rows (helpful and useless
// mixed as in a real fill, copy into the consumed buffer included); emit
// is RandomCombinationInto at rank k/2.
func (p *prober) linalg(v map[string]float64) {
	v["linalg.bit_add_ns"], v["linalg.bit_emit_ns"] = p.bitMatrix(128)
	v["linalg.bit16_add_ns"], v["linalg.bit16_emit_ns"] = p.bitMatrix(16)
	v["linalg.sliced_add_ns"], v["linalg.sliced_emit_ns"], _ = p.slicedMatrix(128, 0)
	v["linalg.sliced_add_payload_ns"], v["linalg.sliced_emit_payload_ns"], v["linalg.solve_ms"] = p.slicedMatrix(128, 4096)
}

func (p *prober) bitMatrix(k int) (addNs, emitNs float64) {
	rows := make([]linalg.BitVec, 4*k)
	for i := range rows {
		rows[i] = linalg.NewBitVec(k)
		for j := range rows[i] {
			rows[i][j] = p.rng.Uint64()
		}
		if k%64 != 0 {
			rows[i][len(rows[i])-1] &= 1<<(uint(k)%64) - 1
		}
	}
	tmp := linalg.NewBitVec(k)
	fill := func(m *linalg.BitMatrix, upto int) int {
		adds := 0
		for i := 0; m.Rank() < upto; i = (i + 1) % len(rows) {
			copy(tmp, rows[i])
			m.Add(tmp)
			adds++
		}
		return adds
	}
	addNs = p.perOp(func() int { return fill(linalg.NewBitMatrix(k), k) })
	half := linalg.NewBitMatrix(k)
	fill(half, k/2)
	out := linalg.NewBitVec(k)
	emitNs = p.perOp(func() int {
		for i := 0; i < 256; i++ {
			half.RandomCombinationInto(p.rng, out, nil)
		}
		return 256
	})
	return addNs, emitNs
}

// slicedMatrix probes the bit-sliced GF(256) matrix with k columns and
// extra payload symbols per row (0 = rank-only). With a payload it also
// times Solve on a freshly filled matrix (the fill is excluded).
func (p *prober) slicedMatrix(k, extra int) (addNs, emitNs, solveMs float64) {
	f := gf256()
	proto := linalg.NewSlicedMatrix(f, k, extra)
	type row struct{ c, pay linalg.SlicedVec }
	rows := make([]row, 2*k)
	for i := range rows {
		rows[i].c = make(linalg.SlicedVec, proto.Stride())
		f.PackSliced(rows[i].c, p.bytes(k))
		if extra > 0 {
			rows[i].pay = make(linalg.SlicedVec, proto.PayStride())
			f.PackSliced(rows[i].pay, p.bytes(extra))
		}
	}
	tmp := row{c: make(linalg.SlicedVec, proto.Stride())}
	if extra > 0 {
		tmp.pay = make(linalg.SlicedVec, proto.PayStride())
	}
	fill := func(m *linalg.SlicedMatrix, upto int) int {
		adds := 0
		for i := 0; m.Rank() < upto; i = (i + 1) % len(rows) {
			copy(tmp.c, rows[i].c)
			copy(tmp.pay, rows[i].pay)
			m.AddOwned(tmp.c, tmp.pay)
			adds++
		}
		return adds
	}
	addNs = p.perOp(func() int { return fill(linalg.NewSlicedMatrix(f, k, extra), k) })
	half := linalg.NewSlicedMatrix(f, k, extra)
	fill(half, k/2)
	emitNs = p.perOp(func() int {
		for i := 0; i < 32; i++ {
			half.RandomCombinationInto(p.rng, tmp.c, tmp.pay)
		}
		return 32
	})
	if extra > 0 {
		var full *linalg.SlicedMatrix
		solveMs = p.timedOnly(
			func() { full = linalg.NewSlicedMatrix(f, k, extra); fill(full, k) },
			func() { _, _ = full.Solve() }) / 1e6
	}
	return addNs, emitNs, solveMs
}

// ---------------------------------------------------------------------- rlnc

// copyPacket copies src's contents into dst's reusable backing arrays
// (ReceiveOwned clobbers the packet it is given).
func copyPacket(dst, src *rlnc.Packet) {
	dst.Coeffs = append(dst.Coeffs[:0], src.Coeffs...)
	dst.Bits = append(dst.Bits[:0], src.Bits...)
	dst.Sliced = append(dst.Sliced[:0], src.Sliced...)
	dst.Payload = append(dst.Payload[:0], src.Payload...)
	dst.SlicedPay = append(dst.SlicedPay[:0], src.SlicedPay...)
}

func (p *prober) messages(cfg rlnc.Config) []rlnc.Message {
	msgs := make([]rlnc.Message, cfg.K)
	for i := range msgs {
		msgs[i] = rlnc.Message{Index: i}
		if !cfg.RankOnly {
			msgs[i].Payload = gf.RandBytes(cfg.Field, cfg.PayloadLen, p.rng)
		}
	}
	return msgs
}

// rlnc: emit/receive at the workload's own codec configuration — receive
// is the mean ReceiveOwned while a sink node fills from a full-rank
// source's packets, emit is EmitInto at rank k/2; the generation rows at
// scale_sharded's k=64 g=16; adapt/expand/decode at the live frame
// (GF(256), k=64, r=4096; decode at payload_gf256's k=128).
func (p *prober) rlnc(cfg rlnc.Config, v map[string]float64) {
	source := rlnc.MustNewNode(cfg)
	for _, m := range p.messages(cfg) {
		source.Seed(m)
	}
	pool := make([]*rlnc.Packet, 2*cfg.K)
	for i := range pool {
		pool[i] = source.Emit(p.rng)
	}
	tmp := &rlnc.Packet{}
	fill := func(n *rlnc.Node, upto int) int {
		recv := 0
		for i := 0; n.Rank() < upto; i = (i + 1) % len(pool) {
			copyPacket(tmp, pool[i])
			n.ReceiveOwned(tmp)
			recv++
		}
		return recv
	}
	v["rlnc.receive_ns"] = p.perOp(func() int { return fill(rlnc.MustNewNode(cfg), cfg.K) })
	half := rlnc.MustNewNode(cfg)
	fill(half, cfg.K/2)
	v["rlnc.emit_ns"] = p.perOp(func() int {
		for i := 0; i < 32; i++ {
			half.EmitInto(p.rng, tmp)
		}
		return 32
	})

	gcfg := rlnc.GenConfig{Inner: rlnc.Config{Field: gf.MustNew(2), RankOnly: true}, K: scaleK, GenSize: scaleGen}
	gsrc, _ := rlnc.NewGenNode(gcfg)
	for i := 0; i < gcfg.K; i++ {
		gsrc.Seed(rlnc.Message{Index: i})
	}
	gpool := make([]*rlnc.GenPacket, 4*gcfg.K)
	for i := range gpool {
		gpool[i] = gsrc.Emit(p.rng)
	}
	gtmp := &rlnc.GenPacket{Packet: &rlnc.Packet{}}
	v["rlnc.gen_receive_ns"] = p.perOp(func() int {
		n, _ := rlnc.NewGenNode(gcfg)
		recv := 0
		for i := 0; !n.CanDecode(); i = (i + 1) % len(gpool) {
			gtmp.Gen = gpool[i].Gen
			copyPacket(gtmp.Packet, gpool[i].Packet)
			n.ReceiveOwned(gtmp)
			recv++
		}
		return recv
	})
	v["rlnc.gen_emit_ns"] = p.perOp(func() int {
		for i := 0; i < 256; i++ {
			gsrc.EmitInto(p.rng, gtmp)
		}
		return 256
	})

	live := rlnc.Config{Field: gf.MustNew(256), K: liveK, PayloadLen: liveR}
	lsrc := rlnc.MustNewNode(live)
	for _, m := range p.messages(live) {
		lsrc.Seed(m)
	}
	native := lsrc.Emit(p.rng)
	var wireCoeffs []gf.Elem
	var wirePay []byte
	v["rlnc.expand_ns"] = p.perOp(func() int {
		wireCoeffs, wirePay = native.ExpandCoeffs(live.K), native.ExpandPayload(live.PayloadLen)
		return 1
	})
	onWire := &rlnc.Packet{Coeffs: wireCoeffs, Payload: wirePay}
	v["rlnc.adapt_ns"] = p.perOp(func() int {
		lsrc.Adapt(onWire)
		return 1
	})

	dcfg := rlnc.Config{Field: gf.MustNew(256), K: payloadK, PayloadLen: payloadR}
	dsrc := rlnc.MustNewNode(dcfg)
	for _, m := range p.messages(dcfg) {
		dsrc.Seed(m)
	}
	var sink *rlnc.Node
	v["rlnc.decode_ms"] = p.timedOnly(func() {
		sink = rlnc.MustNewNode(dcfg)
		for !sink.CanDecode() {
			dsrc.EmitInto(p.rng, tmp)
			sink.ReceiveOwned(tmp)
		}
	}, func() { _, _ = sink.Decode() }) / 1e6
}

// ----------------------------------------------------------------------- sim

// selector: Uniform and RoundRobin Partner, half each, on the sweep's
// randreg n=1024.
func (p *prober) selector(v map[string]float64) {
	g := graph.RandomRegular(1024, 4, p.rng)
	uni, rr := sim.NewUniform(g), sim.NewRoundRobin(g)
	v["sim.selector_ns"] = p.perOp(func() int {
		for n := 0; n < g.N(); n++ {
			uni.Partner(core.NodeID(n), p.rng)
			rr.Partner(core.NodeID(n), p.rng)
		}
		return 2 * g.N()
	})
}

// ---------------------------------------------------------------------- wire

func liveFrame(p *prober) wire.Envelope {
	return wire.Envelope{Kind: wire.KindPacket, From: 3, WantReply: true,
		Coeffs: gf.RandVector(gf.MustNew(256), liveK, p.rng), Payload: p.bytes(liveR)}
}

func smallFrame(p *prober) wire.Envelope {
	return wire.Envelope{Kind: wire.KindPacket, From: 3, WantReply: true,
		Coeffs: gf.RandVector(gf.MustNew(2), 8, p.rng)}
}

// wire: encode and decode at the live frame (k=64, r=4096) and at the
// smallest one the protocol sends (k=8, no payload), where per-frame cost
// is everything.
func (p *prober) wire(v map[string]float64) {
	for _, fr := range []struct {
		suffix string
		env    wire.Envelope
	}{{"", liveFrame(p)}, {"_small", smallFrame(p)}} {
		env := fr.env
		var buf []byte
		v["wire.encode"+fr.suffix+"_ns"] = p.perOp(func() int {
			for i := 0; i < 64; i++ {
				buf, _ = wire.AppendFrame(buf[:0], 5, &env)
			}
			return 64
		})
		v["wire.decode"+fr.suffix+"_ns"] = p.perOp(func() int {
			for i := 0; i < 64; i++ {
				_, _, _, _ = wire.DecodeFrame(buf)
			}
			return 64
		})
		if fr.suffix == "" {
			v["wire.frame_bytes"] = float64(len(buf))
		}
	}
}

// ------------------------------------------------- harness and resultstore

// storage: the durable side of a sweep, at the fabric workload's spec
// (ring n=32 k=16, 4000 trials): Expand, CSV rendering, checkpoint
// appends (one fsync each) and the result store (append+flush of the
// merged set; query and tail of one cell of 64; open with the index
// present and rebuilt). Files live in the run's scratch directory.
func (p *prober) storage(e *env, v map[string]float64) error {
	spec := fabricSpec(e)
	var cells []harness.Cell
	var trials []harness.Trial
	var err error
	v["harness.expand_ms"] = p.perOp(func() int {
		cells, trials, err = fabricSpec(e).Expand()
		return 1
	}) / 1e6
	if err != nil {
		return err
	}
	rs := &harness.ResultSet{Spec: spec, Cells: cells, Trials: trials, Outcomes: make([]harness.Outcome, len(trials))}
	for i := range rs.Outcomes {
		rs.Outcomes[i].Result.Rounds = 40 + i%17
	}
	v["harness.csv_write_ms"] = p.perOp(func() int {
		err = harness.WriteCSV(io.Discard, rs)
		return 1
	}) / 1e6
	if err != nil {
		return err
	}

	ck, err := harness.OpenCheckpointFile(filepath.Join(e.dir, "probe-ck.jsonl"), spec, len(trials), false)
	if err != nil {
		return err
	}
	next := 0
	v["harness.checkpoint_append_us"] = p.perOp(func() int {
		if err == nil {
			err = ck.Append(next%len(trials), rs.Outcomes[next%len(trials)])
		}
		next++
		return 1
	}) / 1e3
	if cerr := ck.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("checkpoint probe: %w", err)
	}

	// 64 cells of equal size: the merged set's records spread over 64 node
	// counts (the cell key includes N).
	recs := resultstore.FromResultSet(rs)
	for i := range recs {
		recs[i].N = 32 + i%64
	}
	path := filepath.Join(e.dir, "probe-store.jsonl")
	var st *resultstore.Store
	v["resultstore.append_us"] = p.timedOnly(func() {
		if st != nil {
			_ = st.Close()
		}
		_ = os.Remove(path)
		_ = os.Remove(path + ".idx")
		st, err = resultstore.Open(path)
	}, func() {
		if err == nil {
			err = st.Append(recs...)
		}
		if err == nil {
			err = st.Flush()
		}
	}) / 1e3 / float64(len(recs))
	if err != nil {
		return fmt.Errorf("resultstore probe: %w", err)
	}
	one := resultstore.Filter{N: 40}
	v["resultstore.query_ms"] = p.perOp(func() int {
		_, err = st.Query(one)
		return 1
	}) / 1e6
	v["resultstore.tail_ms"] = p.perOp(func() int {
		_, err = st.Tail(one)
		return 1
	}) / 1e6
	if err != nil {
		return fmt.Errorf("resultstore probe: %w", err)
	}
	reopen := func(key string, dropIndex bool) {
		v[key] = p.timedOnly(func() {
			_ = st.Close() // flushes the index
			if dropIndex {
				_ = os.Remove(path + ".idx")
			}
		}, func() {
			if err == nil {
				st, err = resultstore.Open(path)
			}
		}) / 1e6
	}
	reopen("resultstore.open_ms", false)
	reopen("resultstore.open_rebuild_ms", true)
	if err != nil {
		return fmt.Errorf("resultstore probe: %w", err)
	}
	return st.Close()
}

// ------------------------------------------------------------ runtime pumps

// pump is a closed loop with one sender: node 0 sends env to node 1,
// keeping at most window frames in flight, for the probe duration.
// Loopback only: frames per second of host time, not a link rate.
func (p *prober) pump(tr runtime.Transport, env runtime.Envelope) (float64, error) {
	defer tr.Close()
	if _, err := tr.Register(0); err != nil {
		return 0, err
	}
	inbox, err := tr.Register(1)
	if err != nil {
		return 0, err
	}
	// Eight 4 KiB datagrams fit a default socket buffer with room to
	// spare; a frame still lost costs lostAfter, not a hang.
	const window = 8
	const lostAfter = 50 * time.Millisecond
	ctx := context.Background()
	lost := time.NewTimer(lostAfter)
	defer lost.Stop()
	run := func(d time.Duration) (int, time.Duration) {
		sent, recv := 0, 0
		start := time.Now()
		for time.Since(start) < d || recv < sent {
			for sent-recv < window && time.Since(start) < d {
				if tr.Send(ctx, 1, env) == nil {
					sent++
				}
			}
			if recv == sent {
				continue
			}
			lost.Reset(lostAfter)
			select {
			case <-inbox:
			case <-lost.C: // a datagram the kernel dropped: count it and move on
			}
			recv++
		}
		return recv, time.Since(start)
	}
	run(p.d / 10) // dial, warm the connection
	n, el := run(p.d)
	return float64(n) / el.Seconds(), nil
}

func (p *prober) pumps(v map[string]float64) error {
	udp, err := runtime.NewUDPTransport()
	if err != nil {
		return err
	}
	for _, pm := range []struct {
		key string
		tr  runtime.Transport
		env runtime.Envelope
	}{
		{"runtime.chan_frames_per_s", runtime.NewChanTransport(), liveFrame(p)},
		{"runtime.tcp_frames_per_s", runtime.NewTCPTransport(), liveFrame(p)},
		{"runtime.udp_frames_per_s", udp, liveFrame(p)},
		{"runtime.tcp_small_frames_per_s", runtime.NewTCPTransport(), smallFrame(p)},
	} {
		rate, err := p.pump(pm.tr, pm.env)
		if err != nil {
			return fmt.Errorf("%s: %w", pm.key, err)
		}
		v[pm.key] = rate
	}
	return nil
}
