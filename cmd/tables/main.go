// Command tables regenerates the paper's evaluation artifacts — every row
// of Table 1 and Table 2, the Theorem 2 queueing validation, the barbell
// speedup, and the ablations — printing each as a text table with its
// expected shape. Every experiment's trial loop fans out over the
// internal/harness worker pool (-parallel), and the printed tables are
// byte-identical for any worker count.
//
// With -query it runs nothing and reads a result store instead (the file
// `sweep -store` fills): the filter flags select cells and the tail
// summary (P50/P90/P99/P99.9/max) of their rounds prints, or -cells lists
// every stored cell. A filter flag that is passed filters on its value;
// -dynamics and -generations not passed are wildcards. Each mode refuses,
// by name, the other's flags.
//
// Usage:
//
//	tables            # run everything at full scale
//	tables -quick     # small sizes and trial counts
//	tables -only E10  # a single experiment by ID
//	tables -query results.jsonl -graph ring -n 128
//	tables -query results.jsonl -cells
//	tables -query results.jsonl -graph ring -regime model=asynchronous
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"algossip/internal/experiments"
	"algossip/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs, cmd := command(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return cmd()
}

// command registers tables' flags on a new set and returns it with the
// run or query they configure, to call once the set is parsed.
func command(stdout io.Writer) (*flag.FlagSet, func() error) {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	var (
		quick    = fs.Bool("quick", false, "small sizes and trial counts")
		seed     = fs.Uint64("seed", 42, "root seed")
		only     = fs.String("only", "", "run a single experiment by ID (e.g. E4)")
		trials   = fs.Int("trials", 0, "override trials per data point")
		parallel = fs.Int("parallel", 0, "concurrent trials (0 = all cores)")
		outDir   = fs.String("outdir", "", "also write each experiment's output to <outdir>/<ID>.txt")
	)
	runFlags := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { runFlags[f.Name] = true })
	storePath := fs.String("query", "", "read this result store instead of running: print the tail of the cells the filter flags select")
	query := bindQuery(fs)
	return fs, func() error {
		if fs.NArg() > 0 {
			return fmt.Errorf("unexpected argument %q", fs.Arg(0))
		}
		querying := false
		fs.Visit(func(f *flag.Flag) { querying = querying || f.Name == "query" })
		if querying {
			if *storePath == "" {
				return fmt.Errorf("-query: want a result store path")
			}
			if err := harness.RefuseFlags(fs, func(name string) bool { return !runFlags[name] },
				"not with -query: it reads the store and runs nothing"); err != nil {
				return err
			}
			return query(*storePath, stdout)
		}
		if err := harness.RefuseFlags(fs, func(name string) bool { return runFlags[name] },
			"applies to a store query only: add -query"); err != nil {
			return err
		}
		if *trials < 0 {
			return fmt.Errorf("-trials %d: want a positive count, or 0 for each experiment's default", *trials)
		}
		if *parallel < 0 {
			return fmt.Errorf("-parallel %d: want a positive worker count, or 0 for all cores", *parallel)
		}
		opt := experiments.Options{Quick: *quick, Seed: *seed, Trials: *trials, Parallel: *parallel}

		exps := experiments.All()
		if *only != "" {
			e, err := experiments.ByID(*only)
			if err != nil {
				return err
			}
			exps = []experiments.Experiment{e}
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
		}
		// The fail-fast writer latches the first stdout error so a broken
		// pipe or full disk exits non-zero instead of silently truncating
		// the report.
		w := harness.NewFailFastWriter(stdout)
		for _, e := range exps {
			start := time.Now()
			fmt.Fprintf(w, "=== %s — %s ===\n", e.ID, e.Artifact)
			var buf bytes.Buffer
			out := io.MultiWriter(w, &buf)
			if err := e.Run(out, opt); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			if *outDir != "" {
				path := filepath.Join(*outDir, e.ID+".txt")
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					return err
				}
			}
			fmt.Fprintf(w, "(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
		}
		return w.Err()
	}
}
