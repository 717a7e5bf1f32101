package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"eplace/internal/bookshelf"
	"eplace/internal/cluster"
	"eplace/internal/core"
	"eplace/internal/netlist"
	"eplace/internal/synth"
	"eplace/internal/telemetry"
)

// genOnce builds a seed-independent input directory once: fn fills a
// temporary directory that is renamed into place when complete.
func genOnce(path string, fn func(tmp string) error) error {
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	tmp := fmt.Sprintf("%s.tmp-%d", path, os.Getpid())
	os.RemoveAll(tmp)
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	if err := fn(tmp); err != nil {
		os.RemoveAll(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// writeDesign writes spec's circuit as Bookshelf files dir/<base>.*.
func writeDesign(spec synth.Spec, dir, base string) error {
	return bookshelf.WriteAux(synth.Generate(spec), dir, base)
}

// flatSpec is the BIGBLUE4-shaped ISPD05-like circuit: the suite's
// BIGBLUE4 at half scale, 10,885 cells and 12 fixed macros at rho_t 1.0.
func flatSpec() synth.Spec { return synth.ISPD05Suite(0.5)[7] }

// mmsFaultSpec is a small MMS-like circuit with movable macros (the
// suite's ADAPTEC1 at half scale: 1,055 cells, 31 macros). The Bookshelf
// reader types every non-terminal node as a standard cell, so the macros
// vanish on the way in and the flow returns Legal=false with a nil error.
func mmsFaultSpec() synth.Spec { return synth.MMSSuite(0.5)[0] }

// vcycleLevels is the V-cycle depth the traced run asks for, as
// `eplace -levels 5`.
const vcycleLevels = 5

// flatPerRound is the number of timed placements in a round; with the
// fault operation a round takes about 37 s on one vCPU, so a 40-second
// run is one round.
const flatPerRound = 5

// flatFault is the known fault the MMS design's placement shows.
const flatFault = "Bookshelf reader drops movable macros (readNodes types every non-terminal node as a standard cell)"

func genFlat(dir string, _ int64) error {
	return genOnce(filepath.Join(dir, "shared"), func(tmp string) error {
		if err := writeDesign(flatSpec(), tmp, "bigblue4"); err != nil {
			return err
		}
		return writeDesign(mmsFaultSpec(), tmp, "mms")
	})
}

// readDesign is the set-up step every flow workload shares: read the
// Bookshelf design and validate it, as `eplace -aux` does.
func readDesign(b *bench, aux string) (*netlist.Design, error) {
	sp := b.led.begin("bookshelf.ReadAux", 0, 0)
	d, err := bookshelf.ReadAux(aux)
	b.led.end(sp)
	if err != nil {
		return nil, err
	}
	sp = b.led.begin("netlist.Validate", 0, 0)
	err = d.Validate()
	b.led.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", aux, err)
	}
	return d, nil
}

// flowRun is one placement of a fresh copy of a design.
type flowRun struct {
	d    *netlist.Design
	res  core.FlowResult
	wall float64
	cpu  float64
	out  outcome
	rec  *telemetry.Recorder
}

// place runs the cold flow on a copy of base and checks the outcome.
func place(b *bench, base *netlist.Design, workers, levels int, traced bool, op int) flowRun {
	r := flowRun{d: base.Clone()}
	fixed := fixedCells(r.d)
	fixedAt := positions(r.d, fixed)
	gp := core.Options{Workers: workers}
	if traced {
		r.rec = telemetry.New()
		gp.Telemetry = r.rec
	}
	sp := b.led.begin("core.Place", 0, op)
	c0, t0 := cpuSeconds(), time.Now()
	var err error
	r.res, err = core.Place(r.d, core.FlowOptions{GP: gp, Levels: levels})
	r.wall, r.cpu = time.Since(t0).Seconds(), cpuSeconds()-c0
	b.led.end(sp)
	if err != nil {
		r.out.err = err
		return r
	}
	sp = b.led.begin("check", 0, op)
	r.out = checkPlacement(r.d, r.res.HPWL, r.res.Legal, fixed, fixedAt)
	b.led.end(sp)
	if r.out.err == nil {
		r.out.err = convergence(r.res)
	}
	return r
}

// convergence fails a run whose global placement diverged or stagnated.
func convergence(res core.FlowResult) error {
	for st, g := range gpResults(res) {
		if g.Diverged || g.Stagnated {
			return fmt.Errorf("%s: diverged=%v stagnated=%v", st, g.Diverged, g.Stagnated)
		}
	}
	return nil
}

// gpResults indexes a flow's global-placement results by stage label.
func gpResults(res core.FlowResult) map[string]core.Result {
	out := map[string]core.Result{"mGP": res.MGP}
	if res.MixedSize {
		out["cGP"] = res.CGP
	}
	for _, l := range res.ML {
		out[fmt.Sprintf("mGP/L%d", l.Level)] = l.Result
	}
	return out
}

// sameRun reports whether two runs of one input agree bit for bit.
func sameRun(a, b flowRun) error {
	if a.res.HPWL != b.res.HPWL {
		return fmt.Errorf("HPWL %.17g vs %.17g", a.res.HPWL, b.res.HPWL)
	}
	if ok, why := telemetry.DigestsEqual(a.res.Digests, b.res.Digests); !ok {
		return fmt.Errorf("golden digests differ: %s", why)
	}
	return nil
}

// runFlat times cold flat placements of the BIGBLUE4-like design. Each
// round also places the MMS design once, untimed: the known-fault
// operation.
func runFlat(b *bench) error {
	sh := filepath.Join(b.dir, "shared")
	aux := filepath.Join(sh, "bigblue4.aux")
	fault, err := bookshelf.ReadAux(filepath.Join(sh, "mms.aux"))
	if err != nil {
		return err
	}
	var base *netlist.Design
	setup := func() (err error) {
		base, err = readDesign(b, aux)
		return err
	}
	if err := b.timeSetup(setup); err != nil {
		return err
	}
	var first *flowRun
	ops := 0
	var last time.Duration
	start := time.Now()
	b.led.opStart()
	for rounds := 0; b.roundsLeft(start, rounds, last); rounds++ {
		t := time.Now()
		b.faultOp(flatFault, place(b, fault, 1, 1, false, 0).out.err)
		for k := 0; k < flatPerRound; k++ {
			ops++
			r := place(b, base, 1, 1, b.traced, ops)
			err := r.out.err
			if err == nil && first != nil {
				err = sameRun(*first, r)
			}
			if err != nil {
				b.problem("%s op %d: %v", b.name, ops, err)
			} else if first == nil {
				if !b.traced {
					// Only the results are compared later; keeping the
					// placed copy would raise the peak resident set of
					// every later round.
					r.d = nil
				}
				first = &r
			}
			b.regularOp(r.wall, r.cpu, r.out.hpwl, err == nil)
			if b.traced {
				b.traceFlow(r)
			}
		}
		last = time.Since(t)
		if _, err := b.setupAgain(setup); err != nil {
			return err
		}
	}
	if b.traced && first != nil {
		return b.flowExtras(aux, base, *first)
	}
	return nil
}

// traceFlow adds one traced cold-flow operation to the ledger.
func (b *bench) traceFlow(r flowRun) {
	l := b.led
	kern := l.addGP(r.rec, r.res.Stages, gpResults(r.res))
	l.sum["core.mip_s"] += r.res.StageTime["mIP"].Seconds()
	l.sum["core.mgp_s"] += r.res.StageTime["mGP"].Seconds()
	l.sum["core.cdp_s"] += r.res.StageTime["cDP"].Seconds()
	l.sum["legalize.offsite_cells"] += float64(r.out.offsite)
	br := breakdown("place", r.wall, r.res.Stages, nil)
	br.Kernels = kern
	l.sum["core.other_s"] += br.Parts["core.other_s"]
	l.sum["wall"] += r.wall
	l.opDone(br)
}

// flowExtras makes the traced run's side measurements: one untraced
// operation (tracing overhead), one at workers=nproc (parallel speed-up,
// and a determinism check across worker counts), the set-up
// reads, an isolated HPWL evaluation and the multilevel layers.
func (b *bench) flowExtras(aux string, base *netlist.Design, first flowRun) error {
	l := b.led
	l.finishGP()
	l.set["bookshelf.read_s"] = l.medianSpan("bookshelf.ReadAux")
	l.set["bookshelf.bytes"] = float64(designBytes(aux))

	plain := place(b, base, 1, 1, false, 0)
	var par flowRun
	b.withAllCPUs(func() { par = place(b, base, b.nproc, 1, true, 0) })
	for _, r := range []flowRun{plain, par} {
		if err := r.out.err; err != nil {
			b.problem("%s side measurement: %v", b.name, err)
		} else if err := sameRun(first, r); err != nil {
			b.problem("%s: traced/untraced or worker-count determinism: %v", b.name, err)
		}
	}
	l.set["trace.overhead_s"] = l.sum["wall"]/float64(l.n) - plain.wall
	// serial and par are the traced runs at workers=1 and workers=nproc.
	serial := first
	if b.nproc > 1 {
		_, ts, _ := stageKernels(serial.rec, serial.res.Stages)
		_, tp, _ := stageKernels(par.rec, par.res.Stages)
		l.set["parallel.op_speedup"] = serial.wall / par.wall
		l.set["parallel.mgp_speedup"] = ts.stage / tp.stage
		l.set["parallel.cdp_speedup"] = serial.res.StageTime["cDP"].Seconds() / par.res.StageTime["cDP"].Seconds()
	}

	// An isolated Compiled.HPWL on the placed netlist, and the estimate
	// of its per-iteration share. The flat view sums nets in the same
	// order as the flow's final HPWL, so the two must agree bit for bit.
	cv := first.d.Compile()
	const reps = 200
	var h float64
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		h = cv.HPWL()
	}
	us := time.Since(t0).Seconds() / reps * 1e6
	if h != first.res.HPWL {
		b.problem("Compiled.HPWL %.17g differs from the flow's HPWL %.17g", h, first.res.HPWL)
	}
	l.set["netlist.hpwl_us"] = us
	l.set["netlist.hpwl_est_s"] = us * 1e-6 * l.value("nesterov.iters")

	b.vcycleExtras(base)
	return nil
}

// vcycleExtras measures the multilevel layers on the same design: one
// traced V-cycle placement (`eplace -levels 5`), checked like any
// operation and listed among the trace's breakdowns, and an isolated
// cluster.Build whose hierarchy must match the one the flow used.
func (b *bench) vcycleExtras(base *netlist.Design) {
	l := b.led
	r := place(b, base, 1, vcycleLevels, true, 0)
	if r.out.err != nil || len(r.res.ML) == 0 {
		b.problem("%s V-cycle side measurement: %v (levels %+v)", b.name, r.out.err, r.res.ML)
		return
	}
	_, _, evals := stageKernels(r.rec, r.res.Stages)
	levels := 0.0
	for _, lv := range r.res.ML {
		st := fmt.Sprintf("mGP/L%d", lv.Level)
		levels += r.res.StageTime[st].Seconds()
		name := gpName(st)
		l.set["nesterov.iters."+name] = float64(lv.Result.Iterations)
		l.set["nesterov.grad_evals."+name] = float64(evals[st])
		l.set["nesterov.backtracks."+name] = float64(lv.Result.Backtracks)
	}
	l.set["core.mgp_levels_s"] = levels
	l.set["core.mgp_coarsest_s"] = r.res.StageTime[fmt.Sprintf("mGP/L%d", r.res.ML[0].Level)].Seconds()
	br := breakdown("vcycle", r.wall, r.res.Stages, nil)
	br.Op = len(l.ops) + 1
	l.ops = append(l.ops, br)

	d := base.Clone()
	sp := l.begin("cluster.Build", 0, 0)
	h := cluster.Build(d, vcycleLevels, cluster.Options{})
	l.end(sp)
	l.set["cluster.build_s"] = l.dur(sp)
	l.set["cluster.levels"] = float64(h.Depth())
	top := h.Designs[h.Depth()-1]
	l.set["cluster.coarsest_cells"] = float64(len(top.Cells))
	if r.res.ML[0].Cells != len(top.Cells) || len(r.res.ML)+1 != h.Depth() {
		b.problem("isolated clustering (depth %d, %d coarsest cells) disagrees with the flow's V-cycle %+v",
			h.Depth(), len(top.Cells), r.res.ML)
	}
}

// designBytes sums the sizes of the Bookshelf files next to aux that
// share its base name.
func designBytes(aux string) int64 {
	base := strings.TrimSuffix(aux, ".aux")
	matches, _ := filepath.Glob(base + ".*")
	var n int64
	for _, m := range matches {
		if st, err := os.Stat(m); err == nil {
			n += st.Size()
		}
	}
	return n
}
