package linalg

import (
	"bytes"
	"fmt"
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
		fmt.Fprintf(&log, "add %v ", m.Add(c, p))
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
