// Command fabricd is the worker side of a sweep spread across machines,
// plus a status probe and a query tool over the result store a sweep
// fills.
//
// `sweep -listen ADDR` serves a sweep's deterministic trial work-list
// over HTTP; workers pull leases, run the trials, and stream
// fingerprinted results back. The merged CSV is byte-identical to
// `sweep -parallel 1` on the same flags, for any worker count and any
// worker failure history — a killed worker's lease expires and is re-run,
// and a restarted sweep resumes from its checkpoint.
//
// Usage:
//
//	sweep -graph ring -sizes 64,128 -trials 20 -listen 127.0.0.1:9100 \
//	      -checkpoint fab.ckpt -store results.jsonl -out fab.csv &
//	fabricd worker -coordinator http://127.0.0.1:9100 -parallel 8
//	fabricd status -coordinator http://127.0.0.1:9100
//	fabricd query -store results.jsonl -graph ring -n 128
//	fabricd query -store results.jsonl -cells
//	fabricd query -store results.jsonl -graph ring -regime model=asynchronous
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"algossip/internal/ctlhttp"
	"algossip/internal/fabric"
	"algossip/internal/resultstore"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fabricd:", err)
		os.Exit(1)
	}
}

// run dispatches one subcommand.
func run(args []string, stdout io.Writer) error {
	const usage = "usage: fabricd {worker|status|query} [flags]; sweep -listen serves a sweep"
	if len(args) == 0 {
		return errors.New(usage)
	}
	switch args[0] {
	case "worker":
		return runWorker(args[1:], stdout)
	case "status":
		return runStatus(args[1:], stdout)
	case "query":
		return runQuery(args[1:], stdout)
	}
	return fmt.Errorf("unknown subcommand %q; %s", args[0], usage)
}

// runWorker pulls leases from a served sweep until the run completes.
func runWorker(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	var (
		coord    = fs.String("coordinator", "", "base URL of a served sweep (sweep -listen), e.g. http://host:9100 (required)")
		name     = fs.String("name", "", "worker label (default host:pid)")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0), "concurrent trials")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coord == "" {
		return fmt.Errorf("worker: -coordinator is required")
	}
	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	n, err := fabric.RunWorker(ctx, fabric.WorkerOptions{
		Coordinator: *coord, Name: *name, Parallel: *parallel,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "fabricd: worker %s executed %d trials\n", *name, n)
	return nil
}

// runStatus prints a served sweep's progress counters.
func runStatus(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("status", flag.ContinueOnError)
	coord := fs.String("coordinator", "", "base URL of a served sweep (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coord == "" {
		return fmt.Errorf("status: -coordinator is required")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := (ctlhttp.Client{Base: *coord}).Do(ctx, http.MethodGet, "/status", nil, stdout); err != nil {
		return fmt.Errorf("status: %w", err)
	}
	return nil
}

// runQuery answers "which cell regressed" from the result store without
// re-parsing any CSV: filter flags select cells, and the tail summary
// (P50/P90/P99/P99.9/max) prints per query.
func runQuery(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	var (
		storePath = fs.String("store", "", "result store path (required)")
		specName  = fs.String("spec", "", "filter: spec name")
		graphName = fs.String("graph", "", "filter: topology family")
		n         = fs.Int("n", 0, "filter: node count")
		k         = fs.Int("k", 0, "filter: message count")
		q         = fs.Int("q", 0, "filter: field order")
		protoName = fs.String("protocol", "", "filter: protocol name as stored, e.g. uniform-ag")
		dynamics  = fs.String("dynamics", "", "filter: dynamics schedule as -cells prints it, or its kind, e.g. edge ('' = static topologies only; not passed = any)")
		gens      = fs.Int("generations", 0, "filter: generation size (0 = whole-k coding only; not passed = any)")
		rate      = fs.Float64("rate", -1, "filter: loss/failure rate (-1 = any)")
		regime    = fs.String("regime", "any", "filter: regime as -cells prints it, e.g. model=asynchronous/action=PUSH ('' = the default regime)")
		cells     = fs.Bool("cells", false, "list every stored cell with trial counts instead of querying")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storePath == "" {
		return fmt.Errorf("query: -store is required")
	}
	store, err := resultstore.Open(*storePath)
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
