// Package coretest gives the tests of every package that draws
// coefficients both sides of core.Generator's selection: the same stream
// once as core.NewRand hands it out, where the emit loops draw through the
// inlined generator and skip in O(1), and once behind a source type
// Generator does not know, where they draw through the *rand.Rand one
// value at a time.
package coretest

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"algossip/internal/core"
)

type foreignSource struct{ rand.Source }

// ForeignRand returns core.NewRand(seed)'s stream on a *rand.Rand for
// which core.Generator returns nil.
func ForeignRand(seed uint64) *rand.Rand {
	return rand.New(foreignSource{core.Generator(core.NewRand(seed))})
}

// BothSides runs draw once on core.NewRand(seed) and once on
// ForeignRand(seed). The two must return deeply equal values and leave
// their generators in the same state: whatever draw does, it consumed the
// same values of the stream on the fast side as on the foreign one.
func BothSides(t testing.TB, seed uint64, draw func(*rand.Rand) any) {
	t.Helper()
	fast, foreign := core.NewRand(seed), ForeignRand(seed)
	if a, b := draw(fast), draw(foreign); !reflect.DeepEqual(a, b) {
		t.Fatalf("on a core.NewRand stream: %v\non a foreign source in the same state: %v", a, b)
	}
	if a, b := fast.Uint64(), foreign.Uint64(); a != b {
		t.Fatalf("the core.NewRand stream and the foreign source were left in different states (next draws %#x, %#x)", a, b)
	}
}
