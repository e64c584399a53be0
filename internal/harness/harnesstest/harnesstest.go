// Package harnesstest holds the checks shared by the tests of every
// binary that binds a harness.Spec to its command line, so sweep (served
// with -listen or not) and gossipsim are held to one table.
package harnesstest

import (
	"io"
	"testing"
)

// RejectsBadSpecWords runs the malformed experiment words against a
// binary's run function; every binary must refuse every one of them
// before it does any work.
func RejectsBadSpecWords(t *testing.T, run func(args []string, stdout io.Writer) error) {
	t.Helper()
	for _, args := range [][]string{
		{"-protocol", "bogus"},
		{"-model", "bogus"},
		{"-action", "sideways"},
		{"-dynamics", "edge:rate=1.5"},
		{"-dynamics", "edge:rate=NaN"}, // NaN passes a range written as x < 0 || x >= 1
		{"-dynamics", "churn:rate=NaN"},
		{"-dynamics", "static:rate=0.5"}, // static takes no options
		{"-dynamics", "static:period=7"},
		{"-dynamics", "static:burst=3"},
		{"-adversary", "byzantine:frac=2"},
		{"-adversary", "byzantine:frac=NaN"},
		{"-classes", "nope"},
		{"-classes", "straggler:frac=NaN"},
		{"-q", "6"},                             // no such field: refused, not a gf.MustNew panic in the pool
		{"-q", "300"},                           // over the byte representation
		{"-protocol", "tag", "-action", "push"}, // TAG's Phase 2 is an EXCHANGE
		{"-protocol", "tag-is", "-action", "pull"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}
