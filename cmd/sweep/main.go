// Command sweep runs a parameter sweep of one protocol over one topology
// family and writes a CSV of stopping times, suitable for plotting the
// paper's scaling curves (rounds vs n, rounds vs k).
//
// The sweep is one internal/harness Spec: trials fan out across a worker
// pool (-parallel, defaulting to all cores) with per-trial derived
// seeds, and results are collected in deterministic (size, trial) order —
// the CSV is byte-identical for any worker count. Long sweeps are
// restartable: -checkpoint records every finished trial and -resume
// replays the file and runs only what is missing, producing the same
// output bytes as an uninterrupted run.
//
// With -listen the same sweep is served instead of run: the work-list is
// leased over HTTP to `fabricd worker`s (internal/fabric), which may sit
// on other machines, and the merged CSV is byte-identical to the local
// pool's for any worker count and any worker failure history. The first
// stderr line names the address workers dial (-listen 127.0.0.1:0 picks
// a free port); SIGINT or SIGTERM stops serving, and -resume on the same
// -checkpoint picks up every trial already accepted. -session, -lease-chunk
// and -lease-ttl apply to a served sweep only, -parallel and -timeout to a
// local one; the other mode refuses them.
//
// Usage:
//
//	sweep -graph barbell -protocol ag -sizes 16,32,64,128 -trials 5 -out barbell_ag.csv
//	sweep -graph line -protocol tag -kmode n -sizes 32,64,128 -parallel 8
//	sweep -graph cliquechain -protocol tag-is -sizes 64,128,256 -trials 20 \
//	      -checkpoint sweep.ckpt -resume -progress
//	sweep -graph torus -protocol ag -sizes 36,64 -trials 10 \
//	      -dynamics edge:rate=0.25
//	sweep -graph complete -protocol ag -sizes 64,128 -trials 10 \
//	      -adversary byzantine:frac=0.1,mode=pollute -classes straggler:frac=0.2,slow=4
//	sweep -graph ring -sizes 64,128 -trials 20 -listen 127.0.0.1:9100 \
//	      -checkpoint fab.ckpt -store results.jsonl -out fab.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"algossip/internal/fabric"
	"algossip/internal/gf"
	"algossip/internal/harness"
	"algossip/internal/resultstore"
	"algossip/internal/stats"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// run executes one command line; ctx bounds a served sweep only (the
// local pool runs to the end or dies with the process).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	spec := harness.Spec{
		Name: "sweep", Graph: "barbell", Sizes: []int{16, 32, 64}, KMode: "half",
		Q: 2, Trials: 3, Seed: 1,
		// The CSV only reads Rounds; skip per-node detail so huge sweeps
		// stay lean in memory and in the checkpoint file.
		Lean: true,
	}
	spec.BindFlags(fs)
	spec.BindGridFlags(fs)
	var (
		parallel   = fs.Int("parallel", runtime.GOMAXPROCS(0), "concurrent trials (0 = all cores, 1 = sequential)")
		timeout    = fs.Duration("timeout", 0, "per-trial timeout (0 = none)")
		listen     = fs.String("listen", "", "serve the trials to fabricd workers on this address instead of running them (127.0.0.1:0 = a free port)")
		session    = fs.String("session", "", "with -listen: fabric session label, recorded in the checkpoint fingerprint")
		leaseChunk = fs.Int("lease-chunk", 0, "with -listen: trials per lease (0 = default)")
		leaseTTL   = fs.Duration("lease-ttl", 0, "with -listen: lease expiry without renewal (0 = default 30s)")
		checkpoint = fs.String("checkpoint", "", "record finished trials to this file")
		resume     = fs.Bool("resume", false, "resume from -checkpoint instead of restarting it")
		storePath  = fs.String("store", "", "also ingest results into this result store (query with fabricd query)")
		progress   = fs.Bool("progress", false, "report per-trial progress on stderr")
		out        = fs.String("out", "", "output path (default stdout)")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
		traceFile  = fs.String("trace", "", "write a runtime/trace execution trace to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := refuseMisapplied(fs, *listen != ""); err != nil {
		return err
	}
	if *resume && *checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	stopProfiles, err := harness.Profiles{
		CPUProfile: *cpuprofile, MemProfile: *memprofile, Trace: *traceFile,
	}.Start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil && err == nil {
			err = perr
		}
	}()

	// One progress line for both modes. Only the local pool knows which
	// trial just finished; a served sweep hears a count.
	var report func(done, total int, trial string)
	if *progress {
		progressStart := time.Now()
		report = func(done, total int, trial string) {
			rate := float64(done) / time.Since(progressStart).Seconds()
			fmt.Fprintf(stderr, "\rsweep: %d/%d trials (%s%.1f trials/sec)   ", done, total, trial, rate)
			if done == total {
				fmt.Fprintln(stderr)
			}
		}
	}

	// Open the output before spending any compute, so an unwritable path
	// fails immediately instead of after the whole grid has run. It is
	// truncated only once there are results to put in it: a refused
	// sweep leaves an existing file as it was.
	w := stdout
	var outFile *os.File
	if *out != "" {
		f, err := os.OpenFile(*out, os.O_WRONLY|os.O_CREATE, 0o666)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		w, outFile = f, f
	}

	var rs *harness.ResultSet
	if *listen != "" {
		spec.Fabric = *session
		opts := fabric.CoordinatorOptions{
			Spec: &spec, Listen: *listen,
			Checkpoint: *checkpoint, Resume: *resume,
			LeaseChunk: *leaseChunk, LeaseTTL: *leaseTTL,
		}
		if report != nil {
			opts.Progress = func(done, total int) { report(done, total, "") }
		}
		rs, err = serve(ctx, opts, stderr)
	} else {
		runner := harness.Runner{
			Parallel:   *parallel,
			Timeout:    *timeout,
			Checkpoint: *checkpoint,
			Resume:     *resume,
		}
		if report != nil {
			runner.Progress = func(done, total int, t harness.Trial, o harness.Outcome) {
				report(done, total, fmt.Sprintf("n=%d trial=%d: %d rounds, ", t.Graph.N(), t.Num, o.Result.Rounds))
			}
		}
		rs, err = runner.Run(&spec)
	}
	if err != nil {
		return err
	}
	if outFile != nil {
		// Only a regular file has old bytes to drop: a device or a pipe
		// (-out /dev/null) cannot be truncated.
		fi, err := outFile.Stat()
		if err == nil && fi.Mode().IsRegular() {
			err = outFile.Truncate(0)
		}
		if err != nil {
			return err
		}
	}
	if err := harness.WriteCSV(w, rs); err != nil {
		return err
	}
	if *storePath != "" {
		store, serr := resultstore.Open(*storePath)
		if serr != nil {
			return serr
		}
		if serr := store.Append(resultstore.FromResultSet(rs)...); serr != nil {
			_ = store.Close()
			return serr
		}
		if serr := store.Close(); serr != nil {
			return serr
		}
	}
	for ci, c := range rs.Cells {
		fmt.Fprintf(stderr, "n=%-5d k=%-5d %s\n",
			c.Graph.N(), c.K, stats.Summarize(rs.CellRounds(ci)))
	}
	// Timing footer goes to stderr, never into the CSV/JSON data: the
	// output bytes stay a pure function of (Spec, seed).
	resumed := len(rs.Trials) - rs.Executed
	fmt.Fprintf(stderr, "sweep: %d trials (%d executed, %d resumed) in %v, %.1f trials/sec [gf tier %s]\n",
		len(rs.Trials), rs.Executed, resumed, rs.Elapsed.Round(time.Millisecond), rs.TrialsPerSec(), gf.TierInfo())
	return nil
}

// refuseMisapplied names the first flag passed that the chosen mode would
// ignore: the lease knobs without -listen, the local pool's with it.
func refuseMisapplied(fs *flag.FlagSet, serving bool) error {
	passed := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { passed[f.Name] = true })
	if serving {
		for _, name := range []string{"parallel", "timeout"} {
			if passed[name] {
				return fmt.Errorf("-%s does not apply with -listen: fabricd workers run the trials", name)
			}
		}
		return nil
	}
	for _, name := range []string{"session", "lease-chunk", "lease-ttl"} {
		if passed[name] {
			return fmt.Errorf("-%s applies to a served sweep only: add -listen", name)
		}
	}
	return nil
}

// serve hands the work-list to fabricd workers and returns their merged
// results. The spec is refused before anything binds; the first stderr
// line then names the address. A signal or ctx stops serving, with every
// accepted trial already in the checkpoint for -resume.
func serve(ctx context.Context, opts fabric.CoordinatorOptions, stderr io.Writer) (*harness.ResultSet, error) {
	c, err := fabric.NewCoordinator(opts)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "sweep: serving %s to fabricd workers\n", c.URL())
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	rs, err := c.Run(ctx)
	if err != nil && ctx.Err() != nil {
		return nil, fmt.Errorf("stopped serving: %w", err)
	}
	return rs, err
}
