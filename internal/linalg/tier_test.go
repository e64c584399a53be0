package linalg

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"algossip/internal/core"
	"algossip/internal/gf"
)

// TestTierStreamIdentity feeds one packet stream to a byte-row matrix
// under each kernel tier the host has and holds every tier to the
// scalar one byte for byte: what each insert reports, the rows, pivots
// and transform rows (the factors reduce recorded) every 16 inserts, the
// packets emitted in between and the decode. The widths put coefficient
// rows on both sides of the register-resident row kernels (a multiple
// of 32 up to 256), and the stream carries rows that reduce to zero and
// rows with zeros at stored pivots.
func TestTierStreamIdentity(t *testing.T) {
	host := gf.ActiveTier()
	defer func() { _ = gf.SetTier(host) }()
	for _, q := range []int{16, 256} {
		for _, k := range []int{18, 32, 64, 96, 128, 256, 300} {
			var ref []byte
			for _, tier := range gf.AvailableTiers() {
				if err := gf.SetTier(tier); err != nil {
					t.Fatal(err)
				}
				got := tierStream(gf.MustNew(q), k, 40)
				if ref == nil {
					ref = got
				} else if !bytes.Equal(got, ref) {
					t.Errorf("GF(%d) k=%d: tier %v diverges from %v", q, k, tier, gf.AvailableTiers()[0])
				}
			}
		}
	}
	// GF(2): packed rows of one, two and four words, whose rank-only
	// emits draw in blocks on gfni512.
	for _, k := range []int{16, 64, 128, 256} {
		var ref []byte
		for _, tier := range gf.AvailableTiers() {
			if err := gf.SetTier(tier); err != nil {
				t.Fatal(err)
			}
			got := bitTierStream(k)
			if ref == nil {
				ref = got
			} else if !bytes.Equal(got, ref) {
				t.Errorf("GF(2) k=%d: tier %v diverges from %v", k, tier, gf.AvailableTiers()[0])
			}
		}
	}
}

// bitTierStream runs a rank-only packed GF(2) matrix to full rank from
// random rows, every third of them an emitted combination (which reduces
// to zero), and returns what each insert reports and every packet
// emitted in between.
func bitTierStream(k int) []byte {
	rng := core.NewRand(uint64(k))
	emitRng := core.NewRand(uint64(k) + 1)
	m := NewBitMatrix(k)
	var log bytes.Buffer
	row, out := NewBitVec(k), NewBitVec(k)
	for step := 0; !m.Full(); step++ {
		if step%3 == 2 && m.Rank() > 0 {
			m.RandomCombinationInto(rng, row, nil)
		} else {
			for w := range row {
				row[w] = rng.Uint64()
			}
			if r := k % 64; r != 0 {
				row[len(row)-1] &= 1<<r - 1
			}
		}
		fmt.Fprintf(&log, "add %v ", m.Add(row))
		m.RandomCombinationInto(emitRng, out, nil)
		fmt.Fprintf(&log, "emit %x\n", out)
	}
	return log.Bytes()
}

// TestDrawBlockMatchesLoop holds every emit draw site that draws in
// blocks on gfni512 to the Uint64 loop it replaces, on every tier the
// host has: a rank-only packed GF(2) emit of one, two and four words a
// row at every rank 0…k, and the GF(4), GF(16) and GF(256) factor draws
// at every count up to 300, past the 256 draws one block reaches. The
// combination, the factors and where the stream ends must all be the
// loop's. A tier the host cannot run is skipped by name.
func TestDrawBlockMatchesLoop(t *testing.T) {
	host := gf.ActiveTier()
	defer func() { _ = gf.SetTier(host) }()
	for tier := gf.TierScalar; tier <= gf.TierGFNI512; tier++ {
		t.Run(tier.String(), func(t *testing.T) {
			if err := gf.SetTier(tier); err != nil {
				t.Skipf("%s skipped: %v", t.Name(), err)
			}
			for _, k := range []int{64, 128, 256} {
				rows := core.NewRand(uint64(k))
				m, out, want, row := NewBitMatrix(k), NewBitVec(k), NewBitVec(k), NewBitVec(k)
				for {
					for seed := range uint64(3) {
						s := uint64(k)<<16 | uint64(m.Rank())<<2 | seed
						got, ref := core.NewRand(s), core.NewRand(s)
						for w := range out {
							out[w] = 0xA5A5A5A5A5A5A5A5
						}
						ok := m.RandomCombinationInto(got, out, nil)
						want.Zero()
						g := core.Generator(ref)
						for i := range m.Rank() {
							if g.Uint64()&1 == 1 {
								want.Xor(m.Row(i))
							}
						}
						if ok != (m.Rank() > 0) || ok && !slices.Equal(out, want) || !sameState(got, ref) {
							t.Fatalf("k=%d rank %d seed %d: emitted %v %x, the loop %x (same end state: %v)",
								k, m.Rank(), seed, ok, out, want, sameState(got, ref))
						}
					}
					if m.Full() {
						break
					}
					for r := m.Rank(); m.Rank() == r; {
						for w := range row {
							row[w] = rows.Uint64()
						}
						m.Add(row)
					}
				}
			}
			facs := make([]gf.Elem, 301)
			for _, q := range []int{4, 16, 256} {
				m := NewRankMatrix(gf.MustNew(q), 8, 0)
				for n := 0; n <= 300; n++ {
					s := uint64(q)<<16 | uint64(n)
					got, ref := core.NewRand(s), core.NewRand(s)
					facs[n] = 0xEE
					m.drawFactors(core.Generator(got), got, facs[:n])
					g := core.Generator(ref)
					for i, c := range facs[:n] {
						if w := gf.Elem(g.Uint64() & uint64(q-1)); c != w {
							t.Fatalf("GF(%d) %d factors: factor %d is %d, the loop's %d", q, n, i, c, w)
						}
					}
					if facs[n] != 0xEE || !sameState(got, ref) {
						t.Fatalf("GF(%d) %d factors: wrote past the buffer (%v) or left the stream off the loop's end (%v)",
							q, n, facs[n] != 0xEE, !sameState(got, ref))
					}
				}
			}
		})
	}
}

// tierStream runs the stream on a k-column matrix with extra-byte
// payloads and returns its transcript.
func tierStream(f gf.Field, k, extra int) []byte {
	rng := core.NewRand(uint64(k))
	emitRng := core.NewRand(uint64(k) + 1)
	m := NewRankMatrix(f, k, extra)
	var log bytes.Buffer
	coeffs, pay := make([]gf.Elem, k), make([]byte, extra)
	for step := 0; !m.Full(); step++ {
		c := gf.RandVector(f, k, rng)
		switch step % 4 {
		case 1: // zero at every stored pivot but the last
			for i := 0; i+1 < m.Rank(); i++ {
				c[m.pivot[i]] = 0
			}
		case 2: // a combination of stored rows: reduces to zero
			if m.Rank() > 0 {
				m.RandomCombinationInto(rng, c, pay)
			}
		}
		p := gf.RandBytes(f, extra, rng)
		fmt.Fprintf(&log, "add %v ", m.AddOwned(c, p))
		if step%16 == 0 || m.Full() {
			for i := 0; i < m.Rank(); i++ {
				fmt.Fprintf(&log, "%d:%x/%x ", m.pivot[i], gf.AsBytes(m.rows[i]), gf.AsBytes(m.xform[i]))
			}
		}
		m.RandomCombinationInto(emitRng, coeffs, pay)
		fmt.Fprintf(&log, "emit %x %x\n", gf.AsBytes(coeffs), pay)
	}
	out, err := m.Solve()
	if err != nil {
		panic(err)
	}
	for _, row := range out {
		fmt.Fprintf(&log, "%x\n", row)
	}
	return log.Bytes()
}
