package algossip_test

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"algossip"
	"algossip/internal/core"
)

// disseminateCase is one Disseminate call: the graph, k messages of r
// symbols, and the seed.
type disseminateCase struct {
	g       *algossip.Graph
	k, r    int
	seed    uint64
	msgs    []algossip.Message
	decoded []algossip.Message
	res     algossip.Result
}

func newDisseminateCase(n, k, r int, seed uint64) *disseminateCase {
	g := algossip.RandomRegular(n, 4, algossip.NewRand(seed))
	return &disseminateCase{g: g, k: k, r: r, seed: seed, msgs: algossip.RandomMessages(k, r, seed+1)}
}

// check runs the case and compares it with what it returned before (the
// first run records it): the decoded bytes, which must be the messages,
// and the result.
func (c *disseminateCase) check(t testing.TB) {
	decoded, res, err := algossip.Disseminate(c.g, c.msgs, nil, c.seed)
	if err != nil {
		t.Error(err)
		return
	}
	for i, m := range decoded {
		if m.Index != i || !bytes.Equal(m.Payload, c.msgs[i].Payload) {
			t.Errorf("n=%d k=%d r=%d seed %d: message %d decoded wrong", c.g.N(), c.k, c.r, c.seed, i)
			return
		}
	}
	if c.decoded == nil {
		c.decoded, c.res = decoded, res
	} else if res != c.res {
		t.Errorf("n=%d k=%d r=%d seed %d: %+v, first run %+v", c.g.N(), c.k, c.r, c.seed, res, c.res)
	}
}

// TestAllocsSteadyStateTrial pins what a Disseminate call allocates once
// the call before it had its shape: a constant number of allocations,
// whatever n, k and r, beyond the k + 3 that carry the decoded messages
// out (Solve's rows and their list, the node's and the generations'
// message lists). Every decoder, arena and buffer of the protocol is the
// last call's, reset. The test runs on one P, so that no commit pass
// starts a goroutine, which may allocate, as often as the shape asks, and
// with the collector off: fmt keeps its printers in a sync.Pool, which a
// collection empties (and the race detector's build drops items from at
// random, so it skips).
func TestAllocsSteadyStateTrial(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var base float64
	for i, shape := range []struct{ n, k, r int }{{8, 8, 16}, {16, 32, 256}, {32, 64, 1024}, {12, 100, 64}} {
		c := newDisseminateCase(shape.n, shape.k, shape.r, 5)
		c.check(t)
		allocs := testing.AllocsPerRun(3, func() { c.check(t) }) - float64(shape.k+3)
		if i == 0 {
			base = allocs
		}
		if allocs != base {
			t.Errorf("n=%d k=%d r=%d: a same-shape call allocated k+3 + %.0f times, the first shape k+3 + %.0f",
				shape.n, shape.k, shape.r, allocs, base)
		}
	}
	if base > 64 {
		t.Errorf("a same-shape call allocated k+3 + %.0f times: its protocol is not being reused", base)
	}
}

// TestDisseminateConcurrent: calls from several goroutines at once, of
// two shapes and several seeds, each decode and return what a lone call
// returns — the state a call leaves for the next is never shared (under
// -race, a shared decoder would be a reported race too).
func TestDisseminateConcurrent(t *testing.T) {
	var cases []*disseminateCase
	for seed := range uint64(4) {
		cases = append(cases, newDisseminateCase(16, 24, 100, seed), newDisseminateCase(12, 16, 64, seed))
	}
	for _, c := range cases {
		c.check(t)
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 3 * len(cases) {
				cases[(i+3*w)%len(cases)].check(t)
			}
		}()
	}
	wg.Wait()
}
