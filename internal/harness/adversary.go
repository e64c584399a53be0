package harness

import (
	"fmt"
	"strconv"

	"algossip/internal/core"
	"algossip/internal/gossip/algebraic"
)

// Adversary declares a Byzantine node population for uniform algebraic
// gossip — the flag-parseable, fingerprintable face of
// algebraic.NodeTraits behaviors. The Spec carries the parameters; per
// trial, Execute draws the Byzantine node set from a dedicated seed
// stream (13) of the trial seed, so identical (Spec, Seed) pairs place
// the same adversaries on any worker count.
type Adversary struct {
	// Kind selects the adversary family; "byzantine" is the only kind.
	Kind string `json:"kind"`
	// Frac is the fraction of nodes that are Byzantine, in [0, 1). The
	// drawn count is floor(Frac·n), so at least one node stays honest.
	Frac float64 `json:"frac"`
	// Mode is the behavior of every Byzantine node: "pollute" (default),
	// "replay", "freeride", or "mix" (the three behaviors round-robin
	// across the drawn set).
	Mode string `json:"mode,omitempty"`
}

// withDefaults fills the zero mode with the default behavior.
func (a Adversary) withDefaults() Adversary {
	if a.Mode == "" {
		a.Mode = "pollute"
	}
	return a
}

// IsNone reports whether the declaration is trivial (including a nil
// receiver): no adversary, classic protocol.
func (a *Adversary) IsNone() bool {
	return a == nil || a.Kind == "" || a.Frac == 0
}

// String renders the canonical normalized form, e.g.
// "byzantine:frac=0.1,mode=pollute" — stable input for fingerprints.
func (a *Adversary) String() string {
	if a.IsNone() {
		return "none"
	}
	n := a.withDefaults()
	return fmt.Sprintf("%s:frac=%g,mode=%s", n.Kind, n.Frac, n.Mode)
}

// validate rejects malformed declarations eagerly, at flag-parse time.
func (a *Adversary) validate() error {
	if a.IsNone() {
		return nil
	}
	if a.Kind != "byzantine" {
		return fmt.Errorf("harness: unknown adversary kind %q (known: byzantine)", a.Kind)
	}
	if !(a.Frac >= 0 && a.Frac < 1) { // NaN fails it too
		return fmt.Errorf("harness: adversary frac %v outside [0, 1)", a.Frac)
	}
	switch a.withDefaults().Mode {
	case "pollute", "replay", "freeride", "mix":
		return nil
	default:
		return fmt.Errorf("harness: unknown adversary mode %q (known: pollute, replay, freeride, mix)", a.Mode)
	}
}

// behaviors returns the behavior cycle assigned across the drawn
// Byzantine set.
func (a Adversary) behaviors() []algebraic.Behavior {
	switch a.withDefaults().Mode {
	case "replay":
		return []algebraic.Behavior{algebraic.Replay}
	case "freeride":
		return []algebraic.Behavior{algebraic.FreeRide}
	case "mix":
		return []algebraic.Behavior{algebraic.Pollute, algebraic.Replay, algebraic.FreeRide}
	default:
		return []algebraic.Behavior{algebraic.Pollute}
	}
}

// ParseAdversary parses the -adversary flag syntax "kind:key=value,..."
// with keys frac and mode, e.g. "byzantine:frac=0.1,mode=pollute". An
// empty string means no adversary.
func ParseAdversary(s string) (*Adversary, error) {
	a := &Adversary{}
	var err error
	a.Kind, err = parseDecl("adversary", s, "frac, mode", func(key, val string) (err error) {
		switch key {
		case "frac":
			a.Frac, err = strconv.ParseFloat(val, 64)
		case "mode":
			a.Mode = val
		default:
			err = errUnknownKey
		}
		return err
	})
	if err != nil || a.Kind == "" {
		return nil, err
	}
	if err := a.validate(); err != nil {
		return nil, err
	}
	if a.Kind == "byzantine" && a.Frac == 0 {
		return nil, fmt.Errorf("harness: adversary %q declares no nodes (frac=0); omit the flag instead", s)
	}
	return a, nil
}

// Classes declares heterogeneous node capabilities — stragglers whose
// transmissions are throttled through internal/queueing's Geometric
// service model, and boosted bandwidth tiers. Per trial, Execute draws
// class membership from seed stream 14 and straggler service times from
// stream 15, keeping adversarial trials deterministic for any
// parallelism.
type Classes struct {
	// Kind selects the class family: "straggler" or "tiered".
	Kind string `json:"kind"`
	// Frac is the fraction of nodes in the class, in (0, 1].
	Frac float64 `json:"frac"`
	// Slow is the straggler service factor (kind "straggler"): each
	// transmission is followed by a Geometric(1/Slow) service time with
	// mean Slow rounds. 0 selects the default 4.
	Slow int `json:"slow,omitempty"`
	// Boost is the per-contact packet multiplier (kind "tiered").
	// 0 selects the default 2.
	Boost int `json:"boost,omitempty"`
}

// withDefaults fills zero per-kind parameters.
func (c Classes) withDefaults() Classes {
	if c.Kind == "straggler" && c.Slow == 0 {
		c.Slow = 4
	}
	if c.Kind == "tiered" && c.Boost == 0 {
		c.Boost = 2
	}
	return c
}

// IsNone reports whether the declaration is trivial (including nil):
// uniform capabilities.
func (c *Classes) IsNone() bool {
	return c == nil || c.Kind == "" || c.Frac == 0
}

// String renders the canonical normalized form, e.g.
// "straggler:frac=0.2,slow=4" — stable input for fingerprints.
func (c *Classes) String() string {
	if c.IsNone() {
		return "uniform"
	}
	n := c.withDefaults()
	switch n.Kind {
	case "tiered":
		return fmt.Sprintf("%s:frac=%g,boost=%d", n.Kind, n.Frac, n.Boost)
	default:
		return fmt.Sprintf("%s:frac=%g,slow=%d", n.Kind, n.Frac, n.Slow)
	}
}

// validate rejects malformed declarations eagerly.
func (c *Classes) validate() error {
	if c.IsNone() {
		return nil
	}
	n := c.withDefaults()
	switch n.Kind {
	case "straggler":
		if n.Boost != 0 {
			return fmt.Errorf("harness: boost only applies to kind \"tiered\"")
		}
		if n.Slow < 2 {
			return fmt.Errorf("harness: straggler slow factor %d must be >= 2", n.Slow)
		}
	case "tiered":
		if n.Slow != 0 {
			return fmt.Errorf("harness: slow only applies to kind \"straggler\"")
		}
		if n.Boost < 2 {
			return fmt.Errorf("harness: tier boost %d must be >= 2", n.Boost)
		}
	default:
		return fmt.Errorf("harness: unknown classes kind %q (known: straggler, tiered)", c.Kind)
	}
	if !(n.Frac >= 0 && n.Frac <= 1) { // NaN fails it too
		return fmt.Errorf("harness: classes frac %v outside [0, 1]", n.Frac)
	}
	return nil
}

// ParseClasses parses the -classes flag syntax "kind:key=value,..." with
// keys frac, slow and boost, e.g. "straggler:frac=0.2,slow=4" or
// "tiered:frac=0.25,boost=3". An empty string means uniform capability.
func ParseClasses(s string) (*Classes, error) {
	c := &Classes{}
	var err error
	c.Kind, err = parseDecl("classes", s, "frac, slow, boost", func(key, val string) (err error) {
		switch key {
		case "frac":
			c.Frac, err = strconv.ParseFloat(val, 64)
		case "slow":
			c.Slow, err = strconv.Atoi(val)
		case "boost":
			c.Boost, err = strconv.Atoi(val)
		default:
			err = errUnknownKey
		}
		return err
	})
	if err != nil || c.Kind == "" {
		return nil, err
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	if c.Frac == 0 {
		return nil, fmt.Errorf("harness: classes %q declare no nodes (frac=0); omit the flag instead", s)
	}
	return c, nil
}

// buildTraits materializes the per-node trait table for one trial of n
// nodes: the Byzantine set is a seeded-permutation prefix drawn from
// advSeed (stream 13 of the trial seed), class membership from clsSeed
// (stream 14). The two draws are independent, so a node can be both a
// straggler and Byzantine — heterogeneity does not shield a node from
// compromise. Returns nil when both declarations are trivial.
func buildTraits(n int, adv *Adversary, cls *Classes, advSeed, clsSeed uint64) []algebraic.NodeTraits {
	if adv.IsNone() && cls.IsNone() {
		return nil
	}
	traits := make([]algebraic.NodeTraits, n)
	if !adv.IsNone() {
		a := adv.withDefaults()
		cycle := a.behaviors()
		perm := core.NewRand(advSeed).Perm(n)
		count := int(a.Frac * float64(n))
		for i := 0; i < count; i++ {
			traits[perm[i]].Behavior = cycle[i%len(cycle)]
		}
	}
	if !cls.IsNone() {
		c := cls.withDefaults()
		perm := core.NewRand(clsSeed).Perm(n)
		count := int(c.Frac * float64(n))
		for i := 0; i < count; i++ {
			switch c.Kind {
			case "straggler":
				traits[perm[i]].Slow = c.Slow
			case "tiered":
				traits[perm[i]].Boost = c.Boost
			}
		}
	}
	return traits
}
