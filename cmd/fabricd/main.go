// Command fabricd is the distributed experiment fabric CLI: one binary
// that runs either side of a sweep spread across machines, plus a query
// tool over the result store it fills.
//
// The coordinator expands a sweep spec into its deterministic trial
// work-list and serves leases over HTTP; workers pull leases, run the
// trials, and stream fingerprinted results back. The merged CSV is
// byte-identical to `sweep -parallel 1` on the same flags, for any
// worker count and any worker failure history — a killed worker's lease
// expires and is re-run, and a restarted coordinator resumes from its
// checkpoint.
//
// Usage:
//
//	fabricd coordinator -graph ring -sizes 64,128 -trials 20 \
//	        -listen 127.0.0.1:9100 -checkpoint fab.ckpt \
//	        -store results.jsonl -out fab.csv
//	fabricd worker -coordinator http://127.0.0.1:9100 -parallel 8
//	fabricd status -coordinator http://127.0.0.1:9100
//	fabricd query -store results.jsonl -graph ring -n 128
//	fabricd query -store results.jsonl -cells
//	fabricd query -store results.jsonl -graph ring -regime model=asynchronous
//
// The coordinator takes sweep's experiment words (harness.Spec.BindFlags),
// so any regime sweep runs locally launches here unchanged.
package main

import (
	"context"
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
	"algossip/internal/harness"
	"algossip/internal/resultstore"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "fabricd: usage: fabricd {coordinator|worker|status|query} [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "coordinator":
		err = runCoordinator(os.Args[2:], os.Stdout, os.Stderr)
	case "worker":
		err = runWorker(os.Args[2:], os.Stdout)
	case "status":
		err = runStatus(os.Args[2:], os.Stdout)
	case "query":
		err = runQuery(os.Args[2:], os.Stdout)
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fabricd:", err)
		os.Exit(1)
	}
}

// runCoordinator serves a sweep spec to workers and writes the merged
// CSV when the last trial lands. Its first stderr line names the address
// it listens on (-listen 127.0.0.1:0 picks a free port).
func runCoordinator(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("coordinator", flag.ContinueOnError)
	// The Spec is sweep's, word for word, so the merged CSV can be checked
	// against `sweep -parallel 1` on the same command line.
	spec := &harness.Spec{
		Name: "sweep", Graph: "barbell", Sizes: []int{16, 32, 64}, KMode: "half",
		Q: 2, Trials: 3, Seed: 1, Lean: true,
	}
	spec.BindFlags(fs)
	spec.BindGridFlags(fs)
	var (
		session    = fs.String("session", "", "fabric session label, recorded in the checkpoint fingerprint")
		listen     = fs.String("listen", "127.0.0.1:9100", "coordinator listen address")
		checkpoint = fs.String("checkpoint", "", "record accepted trials to this file")
		resume     = fs.Bool("resume", false, "resume from -checkpoint instead of restarting it")
		storePath  = fs.String("store", "", "ingest merged results into this result store")
		leaseChunk = fs.Int("lease-chunk", 0, "trials per lease (0 = default)")
		leaseTTL   = fs.Duration("lease-ttl", 0, "lease expiry without renewal (0 = default 30s)")
		progress   = fs.Bool("progress", false, "report per-trial progress on stderr")
		jsonOut    = fs.Bool("json", false, "write JSON instead of CSV")
		out        = fs.String("out", "", "output path (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec.Fabric = *session
	if *resume && *checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}

	var store *resultstore.Store
	if *storePath != "" {
		store, err = resultstore.Open(*storePath)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := store.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
	}
	opts := fabric.CoordinatorOptions{
		Spec: spec, Listen: *listen,
		Checkpoint: *checkpoint, Resume: *resume,
		LeaseChunk: *leaseChunk, LeaseTTL: *leaseTTL,
		Store: store,
	}
	if *progress {
		start := time.Now()
		opts.Progress = func(done, total int) {
			rate := float64(done) / time.Since(start).Seconds()
			fmt.Fprintf(stderr, "\rfabricd: %d/%d trials (%.1f trials/sec)   ", done, total, rate)
			if done == total {
				fmt.Fprintln(stderr)
			}
		}
	}
	c, err := fabric.NewCoordinator(opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "fabricd: coordinating %q on %s\n", spec.Name, c.Addr())

	// Open the output before serving a single lease, so an unwritable
	// path fails before any compute is spent.
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		w = f
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rs, err := c.Run(ctx)
	if err != nil {
		return err
	}
	if *jsonOut {
		err = harness.WriteJSON(w, rs)
	} else {
		err = harness.WriteCSV(w, rs)
	}
	if err != nil {
		return err
	}
	resumed := len(rs.Trials) - rs.Executed
	fmt.Fprintf(stderr, "fabricd: %d trials (%d executed by workers, %d resumed) in %v\n",
		len(rs.Trials), rs.Executed, resumed, rs.Elapsed.Round(time.Millisecond))
	return nil
}

// runWorker pulls leases from a coordinator until the run completes.
func runWorker(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	var (
		coord    = fs.String("coordinator", "", "coordinator base URL, e.g. http://host:9100 (required)")
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

// runStatus prints a coordinator's progress counters.
func runStatus(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("status", flag.ContinueOnError)
	coord := fs.String("coordinator", "", "coordinator base URL (required)")
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
