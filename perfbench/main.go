// Command perfbench is the repository's end-to-end benchmark. It has two
// subcommands, both driven by run.py:
//
//	perfbench gen -workload W -seed N -dir DIR
//	perfbench run -workload W -seed N -dir DIR -seconds S -trace 0|1
//
// gen writes the workload's inputs (Bookshelf files, checkpoints, ECO
// edit scripts, HTTP job specs) under DIR; run reads them back, times the
// workload's operations for S seconds, checks every output with the
// checks in check.go and prints one JSON result line on stdout. With
// -trace 1 it reports the per-layer ledger instead of the end-to-end
// metrics and writes its spans to DIR/trace-<workload>-<seed>.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workload is one benchmark workload: gen writes its inputs, run
// measures it.
//
// Every workload runs on one scheduler thread (GOMAXPROCS=1) and places
// at workers=1. On shared vCPUs every wait on a second thread (a worker
// barrier, a stop-the-world pause) lasts as long as the hypervisor keeps
// that vCPU descheduled, so wall times spread far more between runs at
// GOMAXPROCS=2 (README.md gives the figures). The traced run raises
// GOMAXPROCS for its one workers=nproc measurement.
type workload struct {
	gen func(dir string, seed int64) error
	run func(b *bench) error
}

var workloads = map[string]workload{
	"flat-ispd":      {genFlat, runFlat},
	"eco-session":    {genECO, runECO},
	"service-closed": {genService, runService},
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench gen|run -workload W -seed N -dir DIR [-seconds S -trace 0|1]")
		os.Exit(2)
	}
	fs := flag.NewFlagSet(os.Args[1], flag.ExitOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	dir := fs.String("dir", "", "input directory")
	seconds := fs.Float64("seconds", 10, "measured run length")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer ledger")
	fs.Parse(os.Args[2:])
	w, ok := workloads[*name]
	if !ok || *dir == "" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or missing -dir\n", *name)
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = w.gen(*dir, *seed)
	case "run":
		b := newBench(*name, *dir, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
		runtime.GOMAXPROCS(1)
		err = w.run(b)
		if err == nil {
			err = b.finish()
		}
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// bench collects one run's operations and metrics.
type bench struct {
	name     string
	dir      string
	seed     int64
	duration time.Duration
	traced   bool
	nproc    int // GOMAXPROCS at start: the CPUs the process may use

	attempted, failed int
	// problems lists every output check that failed outside the
	// workload's designated fault operations; any entry makes the run
	// incorrect.
	problems []string

	setup []float64 // seconds per set-up repetition
	lat   []float64 // seconds per timed, passing-or-failing regular op
	cpu   float64   // process CPU seconds spent in timed regular ops
	hpwl  []float64 // final HPWL per regular op

	led *ledger // per-layer ledger (traced runs only)
}

func newBench(name, dir string, seed int64, d time.Duration, traced bool) *bench {
	b := &bench{name: name, dir: dir, seed: seed, duration: d, traced: traced, nproc: runtime.GOMAXPROCS(0)}
	if traced {
		b.led = newLedger()
	}
	return b
}

// problem records a failed check on an operation that must pass.
func (b *bench) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", msg)
	b.problems = append(b.problems, msg)
}

// timeSetup runs fn at least three times and until it has run nine
// times or for 1.5 s, recording each repetition's wall time; the last
// repetition's state is what the workload goes on to use. Workloads
// with several rounds call setupAgain after each, so the median set-up
// time is taken over the whole run rather than its first second.
func (b *bench) timeSetup(fn func() error) error {
	var spent time.Duration
	for n := 0; n < 3 || (n < 9 && spent < 1500*time.Millisecond); n++ {
		d, err := b.setupAgain(fn)
		if err != nil {
			return err
		}
		spent += d
	}
	return nil
}

func (b *bench) setupAgain(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	if err := fn(); err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	d := time.Since(t0)
	b.setup = append(b.setup, d.Seconds())
	// Collect the previous repetition's state now, so that repeated
	// set-ups do not stack up garbage into the peak resident set.
	runtime.GC()
	return d, nil
}

// withAllCPUs runs fn with GOMAXPROCS raised to nproc: the traced run
// places once at workers=nproc for the parallel speed-up.
func (b *bench) withAllCPUs(fn func()) {
	prev := runtime.GOMAXPROCS(b.nproc)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// faultOp counts one run of a designated fault operation: it fails in
// every run until the named fault is mended, and its time stays out of
// every timing metric. err is the operation's failure, nil if it passed.
func (b *bench) faultOp(fault string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: known fault (%s): %v\n", fault, err)
	}
}

// regularOp counts one timed operation that must pass its checks.
func (b *bench) regularOp(wall, cpu, hpwl float64, ok bool) {
	b.attempted++
	if !ok {
		b.failed++
	}
	b.lat = append(b.lat, wall)
	b.cpu += cpu
	b.hpwl = append(b.hpwl, hpwl)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// finish prints the run's result line.
func (b *bench) finish() error {
	if b.attempted == 0 || len(b.lat) == 0 {
		return fmt.Errorf("no operation completed")
	}
	res := result{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	if b.traced {
		for _, name := range perLayerNames {
			res.Metrics[name] = metric{b.led.value(name), perLayerUnit(name)}
		}
		if err := b.led.write(b.dir, b.name, b.seed); err != nil {
			return err
		}
	} else {
		n := float64(len(b.lat))
		res.Metrics["setup_s"] = metric{quantile(b.setup, 0.5), "s"}
		res.Metrics["place_p50_s"] = metric{quantile(b.lat, 0.5), "s"}
		res.Metrics["place_p90_s"] = metric{quantile(b.lat, 0.9), "s"}
		res.Metrics["cpu_per_op_s"] = metric{b.cpu / n, "s"}
		res.Metrics["hpwl"] = metric{mean(b.hpwl), "dbu"}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d ops timed, setup reps %d\n", b.name, b.seed, len(b.lat), len(b.setup))
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// roundsLeft reports whether another round of operations fits in the
// measured window, predicting its length from the last round's. The
// first round always runs.
func (b *bench) roundsLeft(start time.Time, rounds int, last time.Duration) bool {
	if rounds == 0 {
		return true
	}
	return time.Since(start)+last <= b.duration
}
