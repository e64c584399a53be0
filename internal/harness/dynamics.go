package harness

import (
	"fmt"
	"strconv"
	"strings"

	"algossip/internal/graph"
)

// Dynamics declares a time-varying topology schedule applied over a
// trial's base graph. It is the flag-parseable, fingerprintable face of
// graph.Dynamic: the Spec carries the parameters, and Execute builds the
// concrete schedule per trial with a seed derived from the trial seed,
// so identical (Spec, Seed) pairs replay identical topology trajectories
// on any worker count.
type Dynamics struct {
	// Kind selects the schedule: "static" (or empty — no dynamics, and
	// no options), "edge" (i.i.d. per-round edge failures), "burst"
	// (periodic correlated failure bursts), "rewire" (periodic partial
	// rewiring), "churn" (node leave/rejoin with state reset), or "grow"
	// (grow-then-stabilize preferential attachment; replaces the base
	// graph's structure, keeping only its node count).
	Kind string `json:"kind"`
	// Rate is the per-kind probability: edge/burst failure rate, rewire
	// fraction, or churn down-probability. Unused by "grow".
	Rate float64 `json:"rate,omitempty"`
	// Period is the schedule cadence in rounds: burst period, rewire
	// period, churn block length, or rounds per join for "grow".
	// 0 selects a per-kind default.
	Period int `json:"period,omitempty"`
	// Burst is the burst length in rounds (kind "burst" only; 0 selects
	// the default).
	Burst int `json:"burst,omitempty"`
}

// withDefaults fills zero cadence fields with per-kind defaults.
func (d Dynamics) withDefaults() Dynamics {
	if d.Period == 0 {
		switch d.Kind {
		case "edge":
			d.Period = 1 // i.i.d. failures resample every round
		case "burst":
			d.Period = 64
		case "rewire":
			d.Period = 32
		case "churn":
			d.Period = 16
		case "grow":
			d.Period = 4
		}
	}
	if d.Kind == "burst" && d.Burst == 0 {
		d.Burst = 8
	}
	return d
}

// IsStatic reports whether the declaration is the trivial constant
// schedule (including a nil receiver), i.e. whether a static engine run
// reproduces it exactly.
func (d *Dynamics) IsStatic() bool {
	return d == nil || d.Kind == "" || d.Kind == "static"
}

// String renders the canonical normalized form, e.g.
// "churn:rate=0.1,period=16" — stable input for fingerprints and labels.
func (d *Dynamics) String() string {
	if d.IsStatic() {
		return "static"
	}
	n := d.withDefaults()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s:rate=%g,period=%d", n.Kind, n.Rate, n.Period)
	if n.Kind == "burst" {
		fmt.Fprintf(&sb, ",burst=%d", n.Burst)
	}
	return sb.String()
}

// growAttach is the attachment degree of a "grow" schedule; its initial
// clique is growAttach+1 nodes and one more must join.
const growAttach = 2

// validate refuses a declaration that cannot run over a graph of n nodes
// (0: not known yet, as on a command line) without building a schedule.
// Options a kind ignores are refused too: they would change the
// fingerprint (breaking -resume against an equivalent run) and nothing
// about the trajectory.
func (d *Dynamics) validate(n int) error {
	if d == nil {
		return nil
	}
	if d.IsStatic() {
		if d.Rate != 0 || d.Period != 0 || d.Burst != 0 {
			return fmt.Errorf("harness: static dynamics take no options (rate=%v, period=%d, burst=%d)", d.Rate, d.Period, d.Burst)
		}
		return nil
	}
	switch d.Kind {
	case "edge", "burst", "rewire", "churn", "grow":
	default:
		return fmt.Errorf("harness: unknown dynamics kind %q (known: static, edge, burst, rewire, churn, grow)", d.Kind)
	}
	if d.Kind == "edge" && d.Period > 1 {
		return fmt.Errorf("harness: edge failures resample every round; period=%d has no effect", d.Period)
	}
	if d.Kind == "grow" && d.Rate != 0 {
		return fmt.Errorf("harness: grow dynamics take no rate (got %v)", d.Rate)
	}
	if d.Kind != "burst" && d.Burst != 0 {
		return fmt.Errorf("harness: burst length only applies to kind \"burst\"")
	}
	w := d.withDefaults()
	if !(w.Rate >= 0 && w.Rate < 1) { // NaN fails it too
		return fmt.Errorf("harness: dynamics rate %v outside [0, 1)", w.Rate)
	}
	if w.Period < 1 {
		return fmt.Errorf("harness: dynamics period %d must be positive", w.Period)
	}
	if w.Kind == "burst" && (w.Burst < 1 || w.Burst >= w.Period) {
		return fmt.Errorf("harness: burst length %d must be in [1, period=%d)", w.Burst, w.Period)
	}
	if w.Kind == "grow" && n > 0 && n < growAttach+2 {
		return fmt.Errorf("harness: grow dynamics need at least %d nodes, got %d", growAttach+2, n)
	}
	return nil
}

// build materializes a validated, non-static schedule over a trial's
// base graph. The seed must derive from the trial seed so each trial
// sees an independent, reproducible topology trajectory.
func (d *Dynamics) build(g *graph.Graph, seed uint64) graph.Dynamic {
	n := d.withDefaults()
	switch n.Kind {
	case "edge":
		return graph.NewEdgeFailures(g, n.Rate, seed)
	case "burst":
		return graph.NewBurstFailures(g, n.Rate, n.Period, n.Burst, seed)
	case "rewire":
		return graph.NewRewire(g, n.Rate, n.Period, seed)
	case "churn":
		return graph.NewChurn(g, n.Rate, n.Period, seed)
	default: // "grow"
		return graph.NewGrow(g.N(), growAttach, n.Period, seed)
	}
}

// ParseDynamics parses the -dynamics flag syntax "kind[:key=value,...]"
// with keys rate, period and burst, e.g. "edge:rate=0.2" or
// "churn:rate=0.1,period=16". An empty string means static.
func ParseDynamics(s string) (*Dynamics, error) {
	d := &Dynamics{}
	var err error
	positive := func(val string) (int, error) {
		v, err := strconv.Atoi(val)
		if err == nil && v < 1 {
			err = strconv.ErrRange
		}
		return v, err
	}
	d.Kind, err = parseDecl("dynamics", s, "rate, period, burst", func(key, val string) (err error) {
		switch key {
		case "rate":
			d.Rate, err = strconv.ParseFloat(val, 64)
		case "period":
			d.Period, err = positive(val)
		case "burst":
			d.Burst, err = positive(val)
		default:
			err = errUnknownKey
		}
		return err
	})
	if err != nil || d.Kind == "" {
		return nil, err
	}
	if err := d.validate(0); err != nil {
		return nil, err
	}
	return d, nil
}
