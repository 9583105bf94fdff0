package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/internal/ftl/ftlcore"
	"repro/internal/hostif"
	"repro/internal/lightlsm"
	"repro/internal/lsm"
	"repro/internal/ocssd"
	"repro/internal/ox"
	"repro/internal/oxblock"
	"repro/internal/vclock"
)

// A run measures one workload in rounds. A round is a constant number
// of operations followed by a drain, so the stack is idle at every round
// boundary and counters read there are exact.
//
// Two windows are measured at once. Wall metrics (host time: what the
// simulator costs) are taken over every round until -seconds have
// passed, as the mid-mean of the per-round values. Virt and count
// metrics (simulated time and device counters: what the modelled drive
// does) are taken over the first virtRounds rounds only. That window is
// a constant number of operations of a seeded sequence on a
// deterministic simulator, so those metrics repeat bit for bit however
// fast the host is, and a faster commit is compared on the same work.

// sizing is a workload's constants. Op counts are constants of the
// benchmark, never derived from a time limit.
type sizing struct {
	roundOps   int // operations per round
	virtRounds int // rounds of the virt window
	setupOps   int // preconditioning operations during set-up
}

// workload is one closed-loop load. All four are closed loops because
// queue pairs are slot-limited and callers block on a slot.
type workload struct {
	name, why   string
	full, smoke sizing
	setup       func(seed int64, sz sizing, tr *tracer) (rig, error)
}

// rig is a built stack plus its seeded generator and oracle.
type rig interface {
	// round drives sz.roundOps operations and drains.
	round(rec *recorder) error
	// snapshot reads the cumulative counters of every layer the rig has.
	// The stack is idle when it is called.
	snapshot() counters
	close()
}

// counters is what the layers count, read from the objects themselves
// (the log pages a wrapped namespace can no longer serve).
type counters struct {
	virtNow vclock.Time // latest completion instant
	dev     ocssd.Stats
	metaBytesPerChunk,
	coreBusy float64 // controller core-pool utilisation × virtNow
	ctrl    ox.Stats
	block   oxblock.Stats
	gc      ftlcore.GCStats
	wal     int64
	lsm     lsm.Stats
	light   lightlsm.Stats
	exec    hostif.ExecutorLog
	redials int
	replays int
}

// recorder collects what the driver sees of each operation.
type recorder struct {
	// Wall latencies of the current round (ns), all and by type.
	wall, wallRead, wallWrite []int64
	// Virtual latencies of the virt window (ns).
	virt   []int64
	virtOn bool
	// userBytes is the payload the workload wrote in the virt window.
	userBytes int64
	attempted int64
	failed    int64
	ord       int32 // ordinal of the next request
}

// op records one completed operation.
func (r *recorder) op(write bool, wallNs int64, virt vclock.Duration, userBytes int) {
	r.attempted++
	r.wall = append(r.wall, wallNs)
	if write {
		r.wallWrite = append(r.wallWrite, wallNs)
	} else {
		r.wallRead = append(r.wallRead, wallNs)
	}
	if r.virtOn {
		r.virt = append(r.virt, int64(virt))
		r.userBytes += int64(userBytes)
	}
}

// fail counts an operation whose result the oracle rejected.
func (r *recorder) fail(format string, args ...any) {
	if r.failed < 5 {
		fmt.Fprintf(os.Stderr, "oracle: "+format+"\n", args...)
	}
	r.failed++
}

// roundStat is what one round cost.
type roundStat struct {
	ops            int64
	wallNs, cpuNs  int64
	traced         bool
	p50, p99, p999 float64 // wall latency of all operations, µs
	rp50, rp99     float64 // of the reads
	wp50, wp99     float64 // of the writes
}

func (r roundStat) kops() float64       { return float64(r.ops) / float64(r.wallNs) * 1e6 }
func (r roundStat) cpuUsPerOp() float64 { return float64(r.cpuNs) / float64(r.ops) / 1e3 }

// runResult is everything one pass measured.
type runResult struct {
	w          *workload
	sz         sizing
	setupS     []float64
	rounds     []roundStat
	rec        *recorder
	c0, c1     counters // at the start and the end of the virt window
	m0, m1     runtime.MemStats
	mEnd       runtime.MemStats
	liveHeapMB float64
	peakRSSMB  float64
	tr         *tracer
	spanTotal  [numLayers]int64
	spanSelf   [numLayers]int64
	spanCount  [numLayers]int64
	tracedOps  int64
	kernelNs   []float64 // the reference kernel, timed after every round
}

// The reference kernel is a fixed piece of work of the kind the simulator
// spends most of its time on: copying a NAND page between two buffers
// that stay in the first-level cache. It is timed after every round, and
// the pass's wall metrics are divided by how much slower it ran than on
// the idle reference box.
//
// The reason is the reference box itself, a two-vCPU guest that switches,
// for a quarter of an hour at a time, into a mode in which everything
// that loads and stores is a fifth to a third slower (a busy sibling
// thread, to judge by what slows and what does not: dependent arithmetic
// and system calls keep their speed). Across such a switch the workloads
// slowed by 21 to 29 % and this kernel by 26 %, so the quotient holds
// still where the raw time does not.
const (
	kernelCopies = 4096
	// referenceNs is what the kernel takes on the reference box at rest.
	referenceNs = 358e3
)

var kernelA, kernelB = make([]byte, 16<<10), make([]byte, 16<<10)

func referenceKernel() int64 {
	t0 := time.Now()
	for i := 0; i < kernelCopies; i++ {
		copy(kernelA, kernelB)
	}
	return int64(time.Since(t0))
}

// slowdown is how much slower than the reference box at rest the host
// ran during the pass.
func (res *runResult) slowdown() float64 { return midmean(res.kernelNs) / referenceNs }

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// setupRepeats is how often set-up runs (once with -smoke); setup_s is
// the median and the last rig is the one measured.
const setupRepeats = 5

// runPass sets the workload up and measures it for seconds.
func runPass(w *workload, smoke bool, seed int64, seconds float64, traced bool) (*runResult, error) {
	sz := w.full
	if smoke {
		sz = w.smoke
	}
	res := &runResult{w: w, sz: sz}
	if traced {
		res.tr = newTracer()
	}
	repeats := setupRepeats
	if smoke {
		repeats = 1
	}
	var r rig
	for i := 0; i < repeats; i++ {
		if r != nil {
			// Free the previous rig first, so that the process never
			// holds two: a footprint that grows into memory the machine
			// has not touched yet costs page faults that dwarf the work.
			r.close()
			r = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if r, err = w.setup(seed, sz, res.tr); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
	}
	err := res.measure(r, seconds)
	// Close before reading the spans: the fabrics server's goroutine
	// records on a lane of its own, and closing waits for it.
	r.close()
	if err != nil {
		return nil, err
	}
	if traced {
		res.spanTotal, res.spanSelf, res.spanCount = res.tr.layerTotals()
	}
	return res, nil
}

// measure runs rounds on r until the virt window is complete and seconds
// have passed.
func (res *runResult) measure(r rig, seconds float64) error {
	sz, traced := res.sz, res.tr != nil
	rec := &recorder{
		wall:      make([]int64, 0, sz.roundOps),
		wallRead:  make([]int64, 0, sz.roundOps),
		wallWrite: make([]int64, 0, sz.roundOps),
		virt:      make([]int64, 0, sz.roundOps*sz.virtRounds),
		virtOn:    true,
	}
	res.rec = rec
	res.rounds = make([]roundStat, 0, 4096)

	runtime.GC() // the discarded set-ups are not this run's garbage
	res.c0 = r.snapshot()
	runtime.ReadMemStats(&res.m0)
	var measured time.Duration
	for i := 0; i < sz.virtRounds || measured.Seconds() < seconds; i++ {
		// Every fourth round of the traced pass runs with recording
		// off: the same rig, seconds apart, gives the tracing overhead
		// without comparing two processes.
		on := traced && i%4 != 3
		if traced {
			res.tr.on.Store(on)
		}
		rec.wall, rec.wallRead, rec.wallWrite = rec.wall[:0], rec.wallRead[:0], rec.wallWrite[:0]
		ops0 := rec.attempted
		cpu0, t0 := cpuNow(), time.Now()
		if err := r.round(rec); err != nil {
			return fmt.Errorf("%s: round %d: %w", res.w.name, i, err)
		}
		wall := time.Since(t0)
		st := roundStat{ops: rec.attempted - ops0, wallNs: int64(wall), cpuNs: cpuNow() - cpu0, traced: on}
		if on {
			res.tracedOps += st.ops
		}
		st.p50, st.p99, st.p999 = quantiles3(rec.wall)
		st.rp50, st.rp99, _ = quantiles3(rec.wallRead)
		st.wp50, st.wp99, _ = quantiles3(rec.wallWrite)
		res.rounds = append(res.rounds, st)
		measured += wall
		res.kernelNs = append(res.kernelNs, float64(referenceKernel()))
		if i+1 == sz.virtRounds {
			rec.virtOn = false
			res.c1 = r.snapshot()
			runtime.ReadMemStats(&res.m1)
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			res.liveHeapMB = float64(ms.HeapAlloc) / (1 << 20)
		}
	}
	if traced {
		res.tr.on.Store(false)
	}
	runtime.ReadMemStats(&res.mEnd)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		res.peakRSSMB = float64(ru.Maxrss) / 1024
	}
	return nil
}

// quantiles3 sorts the latencies xs (ns) in place and returns their p50,
// p99 and p99.9 in µs.
func quantiles3(xs []int64) (p50, p99, p999 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	slices.Sort(xs)
	return quantile(xs, 0.50) / 1e3, quantile(xs, 0.99) / 1e3, quantile(xs, 0.999) / 1e3
}

// quantile reads the q-quantile of sorted xs, interpolating linearly.
func quantile(xs []int64, q float64) float64 {
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return float64(xs[len(xs)-1])
	}
	f := pos - float64(i)
	return float64(xs[i])*(1-f) + float64(xs[i+1])*f
}

// midmean is the mean of the middle half of xs: as robust against a few
// disturbed rounds as the median, and steadier, because it averages.
func midmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	var sum float64
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Which rounds a figure is taken over.
const (
	allRounds = iota
	tracedRounds
	controlRounds // the rounds of a traced pass that ran with recording off
)

// over returns the mid-mean of f over the chosen rounds.
func (res *runResult) over(which int, f func(roundStat) float64) float64 {
	var xs []float64
	for _, r := range res.rounds {
		if which == allRounds || r.traced == (which == tracedRounds) {
			xs = append(xs, f(r))
		}
	}
	return midmean(xs)
}
