package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// snapshot is the process-wide cost state read at the edges of a timed
// region: wall clock, user+sys CPU (getrusage) and the allocator's
// cumulative counters.
type snapshot struct {
	t       time.Time
	cpu     time.Duration
	alloc   uint64 // MemStats.TotalAlloc
	mallocs uint64
}

// beginSnapshot and endSnapshot read the cost state at the two edges of a
// timed region. ReadMemStats stops the world and first waits for a
// collection in progress to finish — tens of milliseconds at the end of a
// payload trial — so the clocks are read on the region's side of it:
// after it at the beginning, before it at the end.
func beginSnapshot() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{t: time.Now(), cpu: cpuTime(), alloc: ms.TotalAlloc, mallocs: ms.Mallocs}
}

func endSnapshot() snapshot {
	s := snapshot{t: time.Now(), cpu: cpuTime()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.alloc, s.mallocs = ms.TotalAlloc, ms.Mallocs
	return s
}

// cost is the difference between two snapshots.
type cost struct {
	wall, cpu      time.Duration
	alloc, mallocs uint64
}

func (a snapshot) until(b snapshot) cost {
	return cost{wall: b.t.Sub(a.t), cpu: b.cpu - a.cpu, alloc: b.alloc - a.alloc, mallocs: b.mallocs - a.mallocs}
}

func (c *cost) add(d cost) {
	c.wall += d.wall
	c.cpu += d.cpu
	c.alloc += d.alloc
	c.mallocs += d.mallocs
}

// padded calls f with the stack pointer moved down by the size of P.
//
//go:noinline
func padded[P [8]byte | [16]byte](f func()) {
	var p P
	p[0] = 1
	f()
	runtime.KeepAlive(&p)
}

// atStackOffset calls f with the stack pointer at one of the two 8-byte
// offsets modulo 16, chosen by the parity of i. Reps alternate between
// them because gf's addMulPlanes8Asm — 70% of the payload workload —
// builds its 32-byte table entries in its own stack frame with unaligned
// moves: at one of the two offsets every entry is split, and a rep moved
// by 10–30% with nothing but the depth of the call path that reached it
// (untraced vs traced, test binary vs command). Alternating, and
// reporting balanced medians, makes a workload's numbers independent of
// that accident, in this build and the next.
func atStackOffset(i int, f func()) {
	if i%2 == 0 {
		padded[[16]byte](f)
	} else {
		padded[[8]byte](f)
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (VmHWM), or 0 where
// /proc is unavailable. Diagnostic only: it moves with GC timing.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// calibSink keeps the calibration loops observable so the compiler cannot
// delete them.
var calibSink uint64

// calibCPU times a fixed integer loop (xorshift, no memory traffic). The
// code never changes, so a change in its time is the host, not the
// program: it brackets every rep, and a rep whose two readings differ by
// more than noisyCalibFrac is flagged noisy.
func calibCPU() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1_500_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
	return time.Since(start)
}

// calibMem sweeps a 256 MiB buffer (read-modify-write, one pass after a
// faulting pass) and returns computed GB/s.
func calibMem() float64 {
	const words = 256 << 20 / 8
	buf := make([]uint64, words)
	for i := range buf { // fault the pages in
		buf[i] = uint64(i)
	}
	start := time.Now()
	var acc uint64
	for i := range buf {
		buf[i] += acc
		acc ^= buf[i]
	}
	el := time.Since(start)
	calibSink += acc
	return 2 * float64(words*8) / el.Seconds() / 1e9
}

// The reference load: three fixed kernels that never change and touch no
// code of the repository, timed beside every rep. The box this benchmark
// runs on shares its cores' hyperthreads with other tenants: for minutes
// at a time every workload runs 15-70% slower while a dependent chain
// (calibCPU) and a streaming sweep (calibMem) read flat. Kernels bound by
// issue width, by cache-resident loads and by kernel entry slow down with
// the workloads, so a run's host times divided by the reference load's
// slowdown in the same run are steady where the raw times are not
// (README.md, "Host-speed normalisation", has the measurements).

// refWide is sixteen integer operations per iteration on eight
// independent chains: bound by issue width, which a busy sibling
// hyperthread halves.
func refWide() time.Duration {
	start := time.Now()
	a, b, c, d, e, f, g, h := uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6), uint64(7), uint64(8)
	for i := 0; i < 1_000_000; i++ {
		a = a*3 + 1
		b = b*5 + 1
		c = c*7 + 1
		d = d*9 + 1
		e ^= e << 13
		f ^= f >> 7
		g += g << 3
		h ^= h << 17
		a ^= a >> 3
		b ^= b >> 5
		c ^= c >> 7
		d ^= d >> 9
		e += e >> 13
		f += f << 7
		g ^= g >> 3
		h += h >> 17
	}
	calibSink += a + b + c + d + e + f + g + h
	return time.Since(start)
}

// refTab is the reference load's 2 MiB lookup table: the size of a
// private second-level cache, which hyperthreads share.
var refTab = func() []uint64 {
	t := make([]uint64, 1<<18)
	for i := range t {
		t[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	return t
}()

// refTable xors independent random lookups in refTab into a 64 KiB
// destination, the access pattern of a table-driven field kernel.
func refTable() time.Duration {
	start := time.Now()
	var dst [8192]uint64
	x := uint64(12345)
	for r := 0; r < 40; r++ {
		for i := range dst {
			x = x*6364136223846793005 + 1442695040888963407
			dst[i] ^= refTab[(x>>40)&(1<<18-1)]
		}
	}
	calibSink += dst[5]
	return time.Since(start)
}

// refSys is 2000 write+read pairs of 64 bytes on a pipe: kernel entry and
// exit, what the socket and fsync paths of the live and fabric workloads
// are made of.
func refSys(fds [2]int) time.Duration {
	start := time.Now()
	var b [64]byte
	for i := 0; i < 2000; i++ {
		if _, err := syscall.Write(fds[1], b[:]); err != nil {
			return 0
		}
		if _, err := syscall.Read(fds[0], b[:]); err != nil {
			return 0
		}
	}
	return time.Since(start)
}

// refReading is one timing of the reference load, in ms: wide, table, sys.
type refReading [3]float64

// refPipes holds one pipe per concurrent reader of the reference load.
var refPipes [][2]int

// readRef runs the reference load on threads goroutines at once — as many
// as the workload keeps busy, so that every core it uses is sampled — and
// returns the mean of their readings.
func readRef(threads int) refReading {
	for len(refPipes) < threads {
		var fds [2]int
		if err := syscall.Pipe(fds[:]); err != nil {
			return refReading{}
		}
		refPipes = append(refPipes, fds)
	}
	one := func(fds [2]int) refReading {
		return refReading{ms(refWide()), ms(refTable()), ms(refSys(fds))}
	}
	if threads <= 1 {
		return one(refPipes[0])
	}
	got := make([]refReading, threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[t] = one(refPipes[t])
		}()
	}
	wg.Wait()
	var sum refReading
	for _, r := range got {
		for j := range sum {
			sum[j] += r[j] / float64(threads)
		}
	}
	return sum
}

// Nominal readings of the reference load, in ms: the quiet reference box.
// Normalised times read as times on that box; only ratios between runs of
// one workload mean anything, and the constants cancel in those.
var refNominal = refReading{3.5, 1.3, 1.3}

// refPoint is the reference load read once: on one thread and, when
// there is more than one worker, on all of them at once.
type refPoint struct{ one, all refReading }

// refLog collects a run's readings of the reference load, in order.
type refLog struct {
	p      int // workers
	points []refPoint
}

// read appends one reading. A nil log reads nothing: reps call it at
// their seams whether or not the run keeps a log.
func (l *refLog) read() {
	if l == nil {
		return
	}
	pt := refPoint{one: readRef(1)}
	if l.p > 1 {
		pt.all = readRef(l.p)
	}
	l.points = append(l.points, pt)
}

// slowdown is how much slower than nominal the host ran the reference
// load over readings [from, to), as two components: wide (issue-bound
// code) and mem (the geometric mean of the table and kernel-entry
// kernels, which move together). A reading's slowdown is the geometric
// mean of its one-thread and all-threads ratios to nominal; the result
// is the mean over the readings, because a rep's time is the mean of the
// host states it ran through.
func (l *refLog) slowdown(from, to int) (wide, mem float64) {
	kernel := func(pt refPoint, j int) float64 {
		x := pt.one[j]
		if pt.all[j] > 0 {
			x = math.Sqrt(x * pt.all[j])
		}
		if x <= 0 {
			return 1
		}
		return x / refNominal[j]
	}
	pts := l.points[from:to]
	if len(pts) == 0 {
		return 1, 1
	}
	for _, pt := range pts {
		wide += kernel(pt, 0) / float64(len(pts))
		mem += math.Sqrt(kernel(pt, 1)*kernel(pt, 2)) / float64(len(pts))
	}
	return wide, mem
}

// hostFactor is the slowdown a workload sees whose host time is
// issue-bound for the share issue and memory-bound for the rest.
func hostFactor(wide, mem, issue float64) float64 {
	return math.Pow(wide, issue) * math.Pow(mem, 1-issue)
}

// hostProbe is the host's state when a run starts.
type hostProbe struct {
	cpu       time.Duration // calibCPU
	memGBs    float64       // calibMem
	gcPauseNs uint64
}

func probeHost() hostProbe {
	h := hostProbe{cpu: calibCPU(), memGBs: calibMem()}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	h.gcPauseNs = mem.PauseTotalNs
	return h
}

// values are the host.* diagnostics of a run that started at h and ends
// now.
func (h hostProbe) values(noisyReps int) map[string]float64 {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return map[string]float64{
		"host.calib_cpu_ms":   ms(h.cpu),
		"host.calib_mem_gb_s": h.memGBs,
		"host.peak_rss_mb":    peakRSSMB(),
		"host.gc_pause_ms":    float64(mem.PauseTotalNs-h.gcPauseNs) / 1e6,
		"host.noisy_reps":     float64(noisyReps),
	}
}

const noisyCalibFrac = 0.10

// noisyPair reports whether two bracketing calibration readings disagree
// by more than noisyCalibFrac.
func noisyPair(before, after time.Duration) bool {
	lo, hi := before, after
	if lo > hi {
		lo, hi = hi, lo
	}
	return float64(hi-lo) > noisyCalibFrac*float64(lo)
}

// median returns the middle of xs (mean of the two middles for even
// counts); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// balanced is the mean of the median of the even-numbered and the median
// of the odd-numbered samples: the statistic for per-rep values, whose
// even and odd reps differ by design (stack offset everywhere, codec on
// live_tcp). A plain median of such a two-humped sample sits between the
// humps and jumps from one to the other. Below eight samples a half's
// median is the mean of two values and one stalled rep moves it (a
// fabric rep once waited 9.5 s for the disk); the workloads whose halves
// differ all pin 24 reps.
func balanced(xs []float64) float64 {
	if len(xs) < 8 {
		return median(xs)
	}
	var halves [2][]float64
	for i, x := range xs {
		halves[i%2] = append(halves[i%2], x)
	}
	return (median(halves[0]) + median(halves[1])) / 2
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
