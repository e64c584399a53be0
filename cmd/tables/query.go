package main

import (
	"flag"
	"fmt"
	"io"

	"algossip/internal/harness"
	"algossip/internal/resultstore"
)

// bindQuery registers the store query's flags on fs and returns the query,
// to run once fs is parsed. It answers "which cell regressed" from the
// result store a sweep fills (sweep -store) without re-parsing any CSV:
// filter flags select cells, and the tail summary
// (P50/P90/P99/P99.9/max) prints per query.
func bindQuery(fs *flag.FlagSet) func(storePath string, stdout io.Writer) error {
	var (
		specName  = fs.String("spec", "", "with -query, filter: spec name")
		graphName = fs.String("graph", "", "with -query, filter: topology family")
		n         = fs.Int("n", 0, "with -query, filter: node count")
		k         = fs.Int("k", 0, "with -query, filter: message count")
		q         = fs.Int("q", 0, "with -query, filter: field order")
		protoName = fs.String("protocol", "", "with -query, filter: protocol name as stored, e.g. uniform-ag")
		dynamics  = fs.String("dynamics", "", "with -query, filter: dynamics schedule as -cells prints it, or its kind, e.g. edge ('' = static topologies only; not passed = any)")
		gens      = fs.Int("generations", 0, "with -query, filter: generation size (0 = whole-k coding only; not passed = any)")
		rate      = fs.Float64("rate", -1, "with -query, filter: loss/failure rate (-1 = any)")
		regime    = fs.String("regime", "any", "with -query, filter: regime as -cells prints it, e.g. model=asynchronous/action=PUSH ('' = the default regime)")
		cells     = fs.Bool("cells", false, "with -query, list every stored cell with trial counts instead of querying")
	)
	return func(storePath string, stdout io.Writer) error {
		if *cells {
			if err := harness.RefuseFlags(fs, func(name string) bool {
				return name == "query" || name == "cells"
			}, "not with -cells: it lists every cell"); err != nil {
				return err
			}
		}
		store, err := resultstore.Open(storePath)
		if err != nil {
			return err
		}
		defer func() { _ = store.Close() }()

		if *cells {
			for _, cc := range store.Cells() {
				c := cc.Cell
				fmt.Fprintf(stdout, "graph=%-12s n=%-6d k=%-6d q=%-4d protocol=%-12s", c.Graph, c.N, c.K, c.Q, c.Protocol)
				if c.Dynamics != "" {
					fmt.Fprintf(stdout, " dyn=%s", c.Dynamics)
				}
				if c.Rate != 0 {
					fmt.Fprintf(stdout, " rate=%g", c.Rate)
				}
				if c.GenSize != 0 {
					fmt.Fprintf(stdout, " gens=%d", c.GenSize)
				}
				if c.Regime != "" {
					fmt.Fprintf(stdout, " regime=%s", c.Regime)
				}
				fmt.Fprintf(stdout, " trials=%d\n", cc.Trials)
			}
			return nil
		}

		// -dynamics and -generations default to values cells store (static,
		// whole-k), so they filter when passed and are wildcards when not.
		passed := map[string]bool{}
		fs.Visit(func(fl *flag.Flag) { passed[fl.Name] = true })
		f := resultstore.Filter{
			Spec: *specName, Graph: *graphName, N: *n, K: *k, Q: *q, Protocol: *protoName,
			Dynamics: *dynamics, HasDynamics: passed["dynamics"],
			GenSize: *gens, HasGenSize: passed["generations"],
		}
		if *rate >= 0 {
			f.Rate, f.HasRate = *rate, true
		}
		if *regime != "any" {
			f.Regime, f.HasRegime = *regime, true
		}
		ts, err := store.Tail(f)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, ts)
		return nil
	}
}
