package harness

import (
	"errors"
	"flag"
	"fmt"
	"strings"

	"algossip/internal/core"
)

// bind registers a flag that parses straight into *dst; an unset flag
// leaves the value the binary put there.
func bind[T any](fs *flag.FlagSet, dst *T, name, usage string, parse func(string) (T, error)) {
	fs.Func(name, usage, func(v string) (err error) {
		*dst, err = parse(v)
		return err
	})
}

// BindFlags registers the experiment words: one flag per
// command-line-settable Spec field, parsed straight into the field, with
// the field's current value as the default. A binary fills a Spec literal
// with its own defaults, binds it, and declares only its run flags
// (-parallel, -checkpoint, -listen, ...) itself.
func (s *Spec) BindFlags(fs *flag.FlagSet) {
	fs.StringVar(&s.Graph, "graph", s.Graph, "topology family: line|ring|grid|torus|complete|star|bintree|barbell|lollipop|cliquechain|hypercube|er|randreg|geometric|pa|file:<path>")
	def := strings.Trim(strings.ReplaceAll(fmt.Sprint(s.Sizes), " ", ","), "[]")
	bind(fs, &s.Sizes, "sizes", "comma-separated node counts (default "+def+")", ParseSizes)
	fs.StringVar(&s.KMode, "kmode", s.KMode, "k per size: half|n|sqrt|const:<v>")
	bind(fs, &s.Protocol, "protocol", "protocol: ag|tag|tag-uniform|tag-is|uncoded (default ag)", ParseProtocol)
	bind(fs, &s.Model, "model", "time model: sync|async (default sync)", core.ParseTimeModel)
	fs.IntVar(&s.Q, "q", s.Q, "field order")
	bind(fs, &s.Action, "action", "contact action: push|pull|exchange (default exchange)", core.ParseAction)
	bind(fs, &s.Dynamics, "dynamics", "time-varying topology: kind[:key=val,...], e.g. edge:rate=0.2 | churn:rate=0.1,period=16 | rewire:rate=0.3,period=32 | burst:rate=0.5,period=64,burst=8 | grow:period=4", ParseDynamics)
	bind(fs, &s.Adversary, "adversary", "Byzantine node population: byzantine:frac=<f>[,mode=pollute|replay|freeride|mix] (uniform AG only)", ParseAdversary)
	bind(fs, &s.Classes, "classes", "heterogeneous node capabilities: straggler:frac=<f>[,slow=<s>] | tiered:frac=<f>[,boost=<b>] (uniform AG only)", ParseClasses)
	fs.IntVar(&s.GenSize, "generations", s.GenSize, "generation size g for generation-coded AG (0 = full-span coding)")
	fs.IntVar(&s.Shards, "shards", s.Shards, "run each trial on this many shards (0 = classic serial engine; any positive count gives the same trajectory)")
	fs.IntVar(&s.Trials, "trials", s.Trials, "trials per cell")
	fs.BoolVar(&s.SingleSource, "single-source", s.SingleSource, "seed all messages at node 0")
	fs.Uint64Var(&s.Seed, "seed", s.Seed, "root seed")
}

// RefuseFlags names every flag passed on fs that the chosen mode would
// ignore — each one applies reports false for — so a binary with more
// than one mode refuses a command line instead of dropping part of it.
// why finishes the message; nil means every flag passed applies.
func RefuseFlags(fs *flag.FlagSet, applies func(name string) bool, why string) error {
	var ignored []string
	fs.Visit(func(f *flag.Flag) {
		if !applies(f.Name) {
			ignored = append(ignored, "-"+f.Name)
		}
	})
	if ignored == nil {
		return nil
	}
	return fmt.Errorf("%s: %s", strings.Join(ignored, " "), why)
}

// errUnknownKey is what a parseDecl setter returns for a key it does not
// take.
var errUnknownKey = errors.New("unknown option")

// parseDecl parses the declaration grammar "kind[:key=value,...]" that
// -dynamics, -adversary and -classes share: it returns the kind ("" for
// an empty declaration) after handing every option to set.
func parseDecl(what, s, known string, set func(key, val string) error) (kind string, err error) {
	kind, rest, _ := strings.Cut(strings.TrimSpace(s), ":")
	if rest == "" {
		return kind, nil
	}
	for _, kv := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return "", fmt.Errorf("harness: %s option %q is not key=value", what, kv)
		}
		if err := set(key, val); errors.Is(err, errUnknownKey) {
			return "", fmt.Errorf("harness: unknown %s option %q (known: %s)", what, key, known)
		} else if err != nil {
			return "", fmt.Errorf("harness: bad %s %s %q", what, key, val)
		}
	}
	return kind, nil
}
