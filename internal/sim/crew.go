package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Crew runs one pass of work on w workers and returns once every part is
// done: part 0 on the calling goroutine, parts 1 … w−1 on goroutines of
// their own. A pass is part(on, j) for each j < w, and its parts must
// touch disjoint state. w = 1 runs part 0 inline — the same code, not a
// second path. It is the one fork/join of a synchronous round: the
// engine's sharded wake (one part per word range) and both commits that
// follow it — the sharded one, split by receiver block, and the classic
// payload round's, split by sender and then by receiver.
//
// Nothing is allocated per pass: the goroutine body is built the first
// time a pass is wider than one and takes its part number from a
// counter, and callers hand in part as a method expression, which is a
// static function value. The zero Crew is ready to use; it must not be
// copied after first use.
type Crew[T any] struct {
	wg   sync.WaitGroup
	next atomic.Int32 // parts handed to goroutines so far
	on   T
	part func(T, int)
	body func()
}

// Run runs part(on, j) for every j < w and returns when all have.
func (c *Crew[T]) Run(w int, on T, part func(T, int)) {
	if w > 1 && c.body == nil {
		c.body = func() {
			defer c.wg.Done()
			c.part(c.on, int(c.next.Add(1)))
		}
	}
	c.on, c.part = on, part
	c.next.Store(0)
	c.wg.Add(w - 1)
	for range w - 1 {
		go c.body()
	}
	if w > 1 {
		// The last goroutine started waits in this P's next slot, which an
		// idle P steals only after backing off: a 3 µs sleep that timer
		// slack stretched to a 60–100 µs mean start per pass on the
		// reference box (2 vCPUs). Yielding starts it here and moves the
		// caller to the run queue an idle P takes at once: 4 µs.
		runtime.Gosched()
	}
	part(on, 0)
	c.wg.Wait()
}
