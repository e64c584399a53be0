// Command bench is the repository's benchmark: five named workloads,
// end-to-end metrics measured with tracing off, and a traced pass that
// reports a per-layer ladder for the whole stack. Every layer is measured
// from outside — by timing calls into exported functions or wrapping
// exported interfaces — so no file outside bench/ knows it exists.
//
//	go run ./bench                                  all workloads, then the traced pass
//	go run ./bench -workload payload_gf256 -seed 2  one workload
//	go run ./bench -workload live_tcp -trace 1      its per-layer run
//	go run ./bench -compare a.jsonl b.jsonl         judge two result sets
//
// The last line of standard output is the result object the driver
// reads; everything before it is for people. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"algossip/internal/gf"
)

// outDir is where traces and scratch files go, relative to the checkout
// root the benchmark is run from (listed in .gitignore).
const outDir = "bench/out"

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (empty: all five in order, each in its own process, then the traced pass)")
		seed    = flag.Uint64("seed", 1, "seed every input derives from")
		seconds = flag.Float64("seconds", 20, "how long the measurement loop runs, in seconds of host time")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics, tracing off")
		scale   = flag.Float64("scale", 1, "shrink trial counts, sizes and the budget (smoke test); golden pins apply at 1 only")
		out     = flag.String("out", "", "append the full result record to this JSONL file (a result set for -compare)")
		update  = flag.Bool("update-golden", false, "rewrite bench/golden.json from this run's pinned reps (seed 1, scale 1) and print the diff")
		compare = flag.Bool("compare", false, "compare two result sets: bench -compare a.jsonl b.jsonl")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare a.jsonl b.jsonl")
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *name == "":
		os.Exit(runAll(*seed, *seconds, *scale, *out, *update))
	}
	w := findWorkload(*name)
	if w == nil {
		fatalf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace takes 0 or 1")
	}
	res, err := runOne(w, outDir, *seed, *seconds, *scale, *trace == 1, *update)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	res.print(os.Stdout)
	if *out != "" {
		if err := appendJSONL(*out, res); err != nil {
			fatalf("%v", err)
		}
	}
	// The driver's result object: last line of standard output.
	line, err := json.Marshal(driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// driverLine is the result object of the driver's contract.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is the full record of one run of one workload: what -out
// appends and -compare reads.
type result struct {
	Workload  string  `json:"workload"`
	Trace     bool    `json:"trace"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Scale     float64 `json:"scale"`
	P         int     `json:"p"`
	NProc     int     `json:"nproc"`
	GoVersion string  `json:"go"`
	GFTier    string  `json:"gf_tier"`

	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Why       string `json:"why,omitempty"`

	// Reps ran; rounds_mean and the golden pins cover the first Pinned.
	Reps      int  `json:"reps"`
	Pinned    int  `json:"pinned"`
	Setups    int  `json:"setups"`
	Simulated bool `json:"rounds_simulated"`
	// Golden is "ok", "mismatch" or "skipped" (seed != 1, scale != 1).
	Golden string `json:"golden"`

	// Metrics is exactly the contract's set for the mode; Extra holds the
	// diagnostics printed beside them (failed_frac, maxima, host probes).
	Metrics map[string]metric `json:"metrics"`
	Extra   map[string]metric `json:"extra,omitempty"`
	Scope   map[string]string `json:"scope,omitempty"` // per-layer: "workload" or "ladder"
	RepMs   []float64         `json:"rep_ms,omitempty"`
	Noisy   []int             `json:"noisy,omitempty"` // reps whose bracketing calib_cpu readings disagreed
	Cells   [][]cellStat      `json:"cells,omitempty"` // pinned reps' simulated statistics
}

func (r *result) print(w *os.File) {
	mode := "end-to-end (tracing off)"
	if r.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  %s  seed=%d seconds=%g scale=%g P=%d nproc=%d %s gf=%s\n",
		r.Workload, mode, r.Seed, r.Seconds, r.Scale, r.P, r.NProc, r.GoVersion, r.GFTier)
	fmt.Fprintf(w, "   reps=%d pinned=%d setups=%d noisy_reps=%d golden=%s attempted=%d failed=%d\n",
		r.Reps, r.Pinned, r.Setups, len(r.Noisy), r.Golden, r.Attempted, r.Failed)
	if r.Why != "" {
		fmt.Fprintf(w, "   FAILED: %s\n", r.Why)
	}
	printMetrics(w, r.Metrics, r.Scope)
	if len(r.Extra) > 0 {
		fmt.Fprintln(w, "   -- diagnostics (not gated)")
		printMetrics(w, r.Extra, nil)
	}
}

func printMetrics(w *os.File, ms map[string]metric, scope map[string]string) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "   %-32s %14.6g %-7s %s\n", n, ms[n].Value, ms[n].Unit, scope[n])
	}
}

func appendJSONL(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in its own process, in order, then the
// traced pass of each, and returns the exit code.
func runAll(seed uint64, seconds, scale float64, out string, update bool) int {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	code := 0
	for _, trace := range []int{0, 1} {
		for _, w := range workloads() {
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-scale", fmt.Sprint(scale), "-trace", fmt.Sprint(trace)}
			if out != "" {
				args = append(args, "-out", out)
			}
			if update {
				args = append(args, "-update-golden")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (trace=%d): %v\n", w.name, trace, err)
				code = 1
			}
		}
	}
	return code
}

// runOne runs one workload in this process; traces and scratch files go
// under out.
func runOne(w *workload, out string, seed uint64, seconds, scale float64, trace, update bool) (*result, error) {
	p := runtime.GOMAXPROCS(0)
	if p > 4 {
		p = 4
	}
	dir := filepath.Join(out, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{p: p, seed: seed, seconds: seconds * scale, scale: scale, out: out, dir: dir, durable: trace}
	res := &result{
		Workload: w.name, Trace: trace, Seed: seed, Seconds: seconds, Scale: scale,
		P: p, NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GFTier: gf.TierInfo(),
		Simulated: w.simulated, Golden: "skipped",
	}
	var err error
	if trace {
		err = runTraced(w, e, res, update)
	} else {
		err = runTimed(w, e, res, update)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && res.Why == ""
	return res, nil
}

// Set-up is repeated at least setupReps times and until setupSpan has
// been spent on it (at most setupMax times), so that millisecond set-ups
// get a median over enough samples to be steady.
const (
	setupReps = 5
	setupMax  = 40
	setupSpan = 300 * time.Millisecond
)

// timedRep is one measured repetition.
type timedRep struct {
	out   outcome
	cost  cost
	noisy bool
	// wide and mem are the host's slowdown on the reference load over the
	// readings taken around the rep, and inside it at its seams.
	wide, mem float64
}

// runReps is the closed measurement loop of the end-to-end run: prepare
// rep i (untimed), run it (timed), until the budget of host time —
// set-up and checking of each rep included, so a run's length is known —
// is spent. The first pinned reps always run. A rep starts only if the
// median rep so far still fits. The reference load is read into ref
// between reps (and by the rep itself at its seams, through e.ref).
func runReps(w *workload, e *env, pinned int, first rep, ref *refLog) ([]timedRep, error) {
	var reps []timedRep
	var took []float64 // host seconds per rep, everything included
	calib := calibCPU()
	ref.read()
	for i, start := 0, time.Now(); i < pinned || time.Since(start).Seconds()+median(took) <= e.seconds; i++ {
		repStart := time.Now()
		r := first
		if i > 0 {
			var err error
			if r, err = w.prepare(e, i); err != nil {
				return nil, fmt.Errorf("rep %d set-up: %w", i, err)
			}
		}
		from := len(ref.points) - 1 // the reading before the rep
		out, c, err := timeRep(i, r)
		if err != nil {
			return nil, fmt.Errorf("rep %d: %w", i, err)
		}
		after := calibCPU()
		ref.read()
		wide, mem := ref.slowdown(from, len(ref.points))
		reps = append(reps, timedRep{out: out, cost: c, noisy: noisyPair(calib, after), wide: wide, mem: mem})
		calib = after
		took = append(took, time.Since(repStart).Seconds())
	}
	return reps, nil
}

// timeRep runs prepared rep i and returns what its timed region cost.
// Every rep starts from a collected, quiescent heap (collected outside
// the timed region): whether a collection left over from the previous rep
// is still running when a rep starts moved a 260 ms payload rep by ±15%.
func timeRep(i int, r rep) (out outcome, c cost, err error) {
	runtime.GC()
	var begin, end snapshot
	atStackOffset(i, func() {
		begin = beginSnapshot()
		out, err = r.run()
		end = endSnapshot()
	})
	r.close()
	if err != nil {
		return out, cost{}, err
	}
	if out.timed != nil {
		return out, *out.timed, nil
	}
	if out.begin != nil {
		begin, end = *out.begin, *out.end
	}
	return out, begin.until(end), nil
}

// pinnedReps is the workload's pinned count under the env's scale.
func pinnedReps(w *workload, e *env) int {
	if e.scale >= 1 {
		return w.pinned
	}
	return e.scaled(w.pinned)
}

// repSamples holds the per-rep values behind the host-time metrics.
type repSamples struct {
	perTrialMs, perS, mbPerS, cpuPerTrial, allocMB []float64
}

// add appends rep tr with its host times divided by host and its
// allocation by counts (1 and 1 for the values as measured).
func (s *repSamples) add(tr timedRep, host, counts float64) {
	n, wall := float64(tr.out.trials), tr.cost.wall.Seconds()/host
	s.perTrialMs = append(s.perTrialMs, 1e3*wall/n)
	s.perS = append(s.perS, n/wall)
	s.mbPerS = append(s.mbPerS, float64(tr.out.bytes)/wall/1e6)
	s.cpuPerTrial = append(s.cpuPerTrial, tr.cost.cpu.Seconds()/host/n)
	s.allocMB = append(s.allocMB, float64(tr.cost.alloc)/counts/n/1e6)
}

func (s *repSamples) metrics(setupS, roundsMean float64) map[string]float64 {
	return map[string]float64{
		"setup_s":            setupS,
		"trials_per_s":       balanced(s.perS),
		"trial_ms_p50":       balanced(s.perTrialMs),
		"goodput_mb_s":       balanced(s.mbPerS),
		"cpu_s_per_trial":    balanced(s.cpuPerTrial),
		"alloc_mb_per_trial": balanced(s.allocMB),
		"rounds_mean":        roundsMean,
	}
}

// runTimed is the end-to-end run: tracing off.
func runTimed(w *workload, e *env, res *result, update bool) error {
	probe := probeHost()

	// Set-up, several times: everything before the timed region of one
	// rep. The last one built is the first rep run.
	var setupS, setupRaw []float64 // normalised, as measured
	var first rep
	setupRef := &refLog{p: 1}
	setupRef.read()
	for spent := 0.0; len(setupS) < setupReps || (spent < setupSpan.Seconds() && len(setupS) < setupMax); {
		if first != nil {
			first.close()
		}
		start := time.Now()
		if _, err := loadGolden(); err != nil {
			return err
		}
		r, err := w.prepare(e, 0)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(start).Seconds()
		setupRef.read()
		n := len(setupRef.points)
		wide, mem := setupRef.slowdown(n-2, n)
		setupRaw = append(setupRaw, took)
		// Set-up is generic single-threaded code: the equal-weight mix.
		setupS = append(setupS, took/hostFactor(wide, mem, 1.0/3))
		spent += took
		first = r
		if e.scale < 1 {
			break // smoke test: once is enough
		}
	}
	pinned := pinnedReps(w, e)
	ref := &refLog{p: e.p}
	e.ref = ref
	reps, err := runReps(w, e, pinned, first, ref)
	e.ref = nil
	if err != nil {
		return err
	}

	// Every rate and cost is a (balanced) median over the reps, so that a
	// transient of the host inside a run moves none of them; totals are
	// diagnostics. Each rep's host times are first divided by the host's
	// slowdown on the reference load around that rep, weighted the way the
	// workload is. Simulated rounds and allocation counts are exact and
	// stay as they are, except on the live cluster, where a tick is a
	// millisecond of host time and every frame allocates: those follow
	// frame delivery, the mem component.
	var total cost
	var trials, failed, pinTrials int
	var pinRounds, pinRoundsRaw float64
	var raw, norm repSamples
	var wides, mems, hosts []float64
	for i, tr := range reps {
		total.add(tr.cost)
		trials += tr.out.trials
		failed += tr.out.failed
		host, counts := hostFactor(tr.wide, tr.mem, w.issue), 1.0
		if !w.simulated {
			counts = tr.mem
		}
		raw.add(tr, 1, 1)
		norm.add(tr, host, counts)
		wides, mems, hosts = append(wides, tr.wide), append(mems, tr.mem), append(hosts, host)
		res.RepMs = append(res.RepMs, ms(tr.cost.wall))
		if tr.noisy {
			res.Noisy = append(res.Noisy, i)
		}
		if tr.out.why != "" && res.Why == "" {
			res.Why = fmt.Sprintf("rep %d: %s", i, tr.out.why)
		}
		if i < pinned {
			pinRoundsRaw += float64(tr.out.rounds)
			pinRounds += float64(tr.out.rounds) / counts
			pinTrials += tr.out.trials
			res.Cells = append(res.Cells, tr.out.cells)
		}
	}
	res.Reps, res.Pinned, res.Setups = len(reps), pinned, len(setupS)
	res.Attempted, res.Failed = trials, failed

	if e.seed == goldenSeed && e.scale == 1 {
		if err := checkGolden(w.name, res, update); err != nil {
			return err
		}
	}

	values := norm.metrics(median(setupS), pinRounds/float64(pinTrials))
	var missing []string
	res.Metrics, missing = pick(endToEnd, values)
	if len(missing) > 0 {
		return fmt.Errorf("internal: end-to-end metrics not computed: %v", missing)
	}

	res.Extra, _ = pick(perLayer, probe.values(len(res.Noisy))) // the host.* rows, with their units
	rawValues := raw.metrics(median(setupRaw), pinRoundsRaw/float64(pinTrials))
	for _, d := range endToEnd {
		res.Extra[d.Name+".raw"] = metric{rawValues[d.Name], d.Unit}
	}
	for name, m := range map[string]metric{
		"host.ref_wide":      {median(wides), "x"},
		"host.ref_mem":       {median(mems), "x"},
		"host.factor":        {median(hosts), "x"},
		"failed_frac":        {float64(failed) / float64(trials), "frac"},
		"trial_ms_max":       {maxOf(raw.perTrialMs), "ms"},
		"timed_wall_s":       {total.wall.Seconds(), "s"},
		"cpu_per_wall":       {total.cpu.Seconds() / total.wall.Seconds(), "cores"},
		"host.calib_cpu_end": {ms(calibCPU()), "ms"},
		"host.calib_mem_end": {calibMem(), "GB/s"},
	} {
		res.Extra[name] = m
	}
	return nil
}
