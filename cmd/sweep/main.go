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
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"algossip/internal/gf"
	"algossip/internal/harness"
	"algossip/internal/resultstore"
	"algossip/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
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
		checkpoint = fs.String("checkpoint", "", "record finished trials to this file")
		resume     = fs.Bool("resume", false, "resume from -checkpoint instead of restarting it")
		storePath  = fs.String("store", "", "also ingest results into this result store (query with fabricd query)")
		progress   = fs.Bool("progress", false, "report per-trial progress on stderr")
		jsonOut    = fs.Bool("json", false, "write JSON instead of CSV")
		out        = fs.String("out", "", "output path (default stdout)")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
		traceFile  = fs.String("trace", "", "write a runtime/trace execution trace to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
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
	if *resume && *checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	runner := harness.Runner{
		Parallel:   *parallel,
		Timeout:    *timeout,
		Checkpoint: *checkpoint,
		Resume:     *resume,
	}
	if *progress {
		progressStart := time.Now()
		runner.Progress = func(done, total int, t harness.Trial, o harness.Outcome) {
			rate := float64(done) / time.Since(progressStart).Seconds()
			fmt.Fprintf(os.Stderr, "\rsweep: %d/%d trials (n=%d trial=%d: %d rounds, %.1f trials/sec)   ",
				done, total, t.Graph.N(), t.Num, o.Result.Rounds, rate)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	// Open the output before spending any compute, so an unwritable path
	// fails immediately instead of after the whole grid has run.
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

	rs, err := runner.Run(&spec)
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
		fmt.Fprintf(os.Stderr, "n=%-5d k=%-5d %s\n",
			c.Graph.N(), c.K, stats.Summarize(rs.CellRounds(ci)))
	}
	// Timing footer goes to stderr, never into the CSV/JSON data: the
	// output bytes stay a pure function of (Spec, seed).
	resumed := len(rs.Trials) - rs.Executed
	fmt.Fprintf(os.Stderr, "sweep: %d trials (%d executed, %d resumed) in %v, %.1f trials/sec [gf tier %s]\n",
		len(rs.Trials), rs.Executed, resumed, rs.Elapsed.Round(time.Millisecond), rs.TrialsPerSec(), gf.TierInfo())
	return nil
}
