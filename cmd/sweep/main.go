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
// leased over HTTP (internal/fabric) to workers, each a `sweep -join URL`
// that may sit on another machine, and the merged CSV is byte-identical to
// the local pool's for any worker count and any worker failure history.
// The first stderr line names the address workers dial (-listen
// 127.0.0.1:0 picks a free port); SIGINT or SIGTERM stops serving, and
// -resume on the same -checkpoint picks up every trial already accepted.
// A worker takes its spec from the coordinator and runs -parallel trials
// at once until the sweep completes; a signal stops it, and the trials it
// held are leased again. `curl URL/status` shows a served sweep's
// progress, and `tables -query` reads the -store it fills.
//
// Each mode refuses, by name, every flag it would ignore: -session,
// -lease-chunk and -lease-ttl apply to a served sweep only, -parallel and
// -timeout to one that runs trials, and -join takes only -parallel and the
// profile flags.
//
// With -detail each trial keeps its per-node completion rounds (in the
// checkpoint too), and after the CSV the stderr report shows every cell
// in depth: the graph with its exact diameter D and maximum degree Δ,
// each trial's rounds, traffic, message size, node completion quantiles
// and, for TAG, the round its spanning tree completed, and the measured
// mean against Theorem 1's (k + log n + D)·Δ. Exact D costs O(n·m), so
// only -detail computes it.
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
//	sweep -join http://127.0.0.1:9100 -parallel 8
//	sweep -graph barbell -sizes 64 -kmode const:64 -protocol tag -trials 5 -detail -out /dev/null
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

	"algossip/internal/core"
	"algossip/internal/fabric"
	"algossip/internal/gf"
	"algossip/internal/gossip/algebraic"
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

// run executes one command line; ctx bounds a served sweep or a worker
// only (the local pool runs to the end or dies with the process).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs, cmd := command(stdout, stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return cmd(ctx)
}

// command registers sweep's flags on a new set and returns it with the
// sweep they configure, to run once the set is parsed.
func command(stdout, stderr io.Writer) (*flag.FlagSet, func(context.Context) error) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := harness.Spec{
		Name: "sweep", Graph: "barbell", Sizes: []int{16, 32, 64}, KMode: "half",
		Q: 2, Trials: 3, Seed: 1,
	}
	spec.BindFlags(fs)
	var (
		detail     = fs.Bool("detail", false, "keep per-node completion rounds and report each cell in depth on stderr (computes the exact diameter)")
		parallel   = fs.Int("parallel", runtime.GOMAXPROCS(0), "concurrent trials (0 = all cores, 1 = sequential)")
		timeout    = fs.Duration("timeout", 0, "per-trial timeout (0 = none)")
		listen     = fs.String("listen", "", "serve the trials to workers (sweep -join) on this address instead of running them (127.0.0.1:0 = a free port)")
		join       = fs.String("join", "", "run trials for the sweep served at this URL (sweep -listen), e.g. http://host:9100, instead of a sweep of its own")
		session    = fs.String("session", "", "with -listen: fabric session label, recorded in the checkpoint fingerprint")
		leaseChunk = fs.Int("lease-chunk", 0, "with -listen: trials per lease (0 = default)")
		leaseTTL   = fs.Duration("lease-ttl", 0, "with -listen: lease expiry without renewal (0 = default 30s)")
		checkpoint = fs.String("checkpoint", "", "record finished trials to this file")
		resume     = fs.Bool("resume", false, "resume from -checkpoint instead of restarting it")
		storePath  = fs.String("store", "", "also ingest results into this result store (read it with tables -query)")
		progress   = fs.Bool("progress", false, "report per-trial progress on stderr")
		out        = fs.String("out", "", "output path (default stdout)")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
		traceFile  = fs.String("trace", "", "write a runtime/trace execution trace to this file")
	)
	return fs, func(ctx context.Context) (err error) {
		if fs.NArg() > 0 {
			return fmt.Errorf("unexpected argument %q", fs.Arg(0))
		}
		if err := refuseMisapplied(fs); err != nil {
			return err
		}
		if *parallel < 0 {
			return fmt.Errorf("-parallel %d: want a positive worker count, or 0 for all cores", *parallel)
		}
		if *listen != "" || *join != "" {
			// A signal stops serving or working through ctx; the local pool
			// keeps the default, which ends the process.
			var stop context.CancelFunc
			ctx, stop = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
			defer stop()
		}
		// The CSV only reads Rounds: without -detail, skip per-node detail so
		// huge sweeps stay lean in memory and in the checkpoint file.
		spec.Lean = !*detail
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
		if *join != "" {
			host, _ := os.Hostname()
			name := fmt.Sprintf("%s:%d", host, os.Getpid())
			n, err := fabric.RunWorker(ctx, fabric.WorkerOptions{Coordinator: *join, Name: name, Parallel: *parallel})
			if err == nil {
				fmt.Fprintf(stderr, "sweep: worker %s executed %d trials\n", name, n)
			}
			return err
		}

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
		if *detail {
			printDetail(stderr, rs)
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
}

// printDetail reports every cell of rs in depth: the graph line, each
// trial, and the measured mean against Theorem 1's bound. A trial whose
// outcome holds no completion rounds (one resumed from a checkpoint
// written without -detail) prints no completion line.
func printDetail(w io.Writer, rs *harness.ResultSet) {
	s := rs.Spec
	action := s.Action
	if action == 0 {
		action = core.Exchange
	}
	for ci, c := range rs.Cells {
		g := c.Graph
		diam, delta := g.Diameter(), g.MaxDegree()
		fmt.Fprintf(w, "graph=%s n=%d m=%d D=%d Δ=%d | protocol=%v model=%v k=%d q=%d action=%v",
			g.Name(), g.N(), g.M(), diam, delta, s.Protocol, s.Model, c.K, s.Q, action)
		if !s.Dynamics.IsStatic() {
			fmt.Fprintf(w, " dynamics=%s", s.Dynamics)
		}
		if s.Adversary != nil {
			fmt.Fprintf(w, " adversary=%s", s.Adversary)
		}
		if s.Classes != nil {
			fmt.Fprintf(w, " classes=%s", s.Classes)
		}
		if s.GenSize > 0 {
			fmt.Fprintf(w, " generations=%d", s.GenSize)
		}
		fmt.Fprintln(w)
		for i, t := range rs.Trials {
			if t.Cell != ci {
				continue
			}
			o := rs.Outcomes[i]
			fmt.Fprintf(w, "  trial %d: %d rounds\n", t.Num, o.Result.Rounds)
			fmt.Fprintf(w, "    traffic: %s | message size %d bits\n", o.Traffic, o.MessageBits)
			if len(o.NodeDoneRounds) > 0 {
				done := make([]float64, len(o.NodeDoneRounds))
				for v, r := range o.NodeDoneRounds {
					done[v] = float64(r)
				}
				fmt.Fprintf(w, "    node completion: %s\n", stats.Summarize(done))
			}
			if o.TreeRounds >= 0 {
				fmt.Fprintf(w, "    spanning tree complete at round %d\n", o.TreeRounds)
			}
		}
		bound := algebraic.Theorem1Bound(g.N(), c.K, diam, delta)
		fmt.Fprintf(w, "Theorem 1 reference (k+log n+D)·Δ = %.0f  (measured mean / bound = %.2f)\n",
			bound, stats.Summarize(rs.CellRounds(ci)).Mean/bound)
	}
}

// refuseMisapplied names every flag passed that the chosen mode would
// ignore. A worker runs the coordinator's spec, so it takes only its pool
// size and the profiles; a served sweep leaves the pool to its workers;
// the lease knobs need -listen.
func refuseMisapplied(fs *flag.FlagSet) error {
	passed := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { passed[f.Name] = true })
	for _, name := range []string{"join", "listen"} {
		if passed[name] && fs.Lookup(name).Value.String() == "" {
			return fmt.Errorf("-%s: want an address", name)
		}
	}
	switch {
	case passed["join"]:
		return harness.RefuseFlags(fs, func(name string) bool {
			switch name {
			case "join", "parallel", "cpuprofile", "memprofile", "trace":
				return true
			}
			return false
		}, "not with -join: a worker runs the spec it is served")
	case passed["listen"]:
		return harness.RefuseFlags(fs, func(name string) bool {
			return name != "parallel" && name != "timeout"
		}, "not with -listen: the workers (sweep -join) run the trials")
	}
	return harness.RefuseFlags(fs, func(name string) bool {
		return name != "session" && name != "lease-chunk" && name != "lease-ttl"
	}, "applies to a served sweep only: add -listen")
}

// serve hands the work-list to workers and returns their merged results.
// The spec is refused before anything binds; the first stderr line then
// names the address. ctx stops serving, with every accepted trial already
// in the checkpoint for -resume.
func serve(ctx context.Context, opts fabric.CoordinatorOptions, stderr io.Writer) (*harness.ResultSet, error) {
	c, err := fabric.NewCoordinator(opts)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "sweep: serving %s to workers (sweep -join)\n", c.URL())
	rs, err := c.Run(ctx)
	if err != nil && ctx.Err() != nil {
		return nil, fmt.Errorf("stopped serving: %w", err)
	}
	return rs, err
}
