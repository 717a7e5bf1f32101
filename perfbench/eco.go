package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"eplace/internal/bookshelf"
	"eplace/internal/checkpoint"
	"eplace/internal/core"
	"eplace/internal/eco"
	"eplace/internal/netlist"
	"eplace/internal/synth"
	"eplace/internal/telemetry"
)

// ecoBaseSpec is the ECO study's base circuit: 4,000 cells at rho_t 0.8,
// the density headroom incremental insertions need.
func ecoBaseSpec() synth.Spec {
	return synth.Spec{Name: "eco-base", NumCells: 4000, Seed: 1, TargetDensity: 0.8}
}

// ecoKinds is one round of edits, in the ECO study's order.
var ecoKinds = []string{"ins0.1", "ins1", "ins5", "reweight", "block"}

// ecoRounds is how many rounds of edit scripts gen writes; a run that
// outlasts them starts over from the first.
const ecoRounds = 60

type ecoEdit struct {
	Kind   string     `json:"kind"`
	Script eco.Script `json:"script"`
}

// genECO writes the base design, its converged placement as a finished
// checkpoint (the `eplace -eco -from prev.ckpt` input), and the seed's
// edit stream.
func genECO(dir string, seed int64) error {
	shared := filepath.Join(dir, "shared")
	if err := genOnce(shared, func(tmp string) error {
		if err := writeDesign(ecoBaseSpec(), tmp, "base"); err != nil {
			return err
		}
		d, err := bookshelf.ReadAux(filepath.Join(tmp, "base.aux"))
		if err != nil {
			return err
		}
		mgr, err := checkpoint.NewManager(filepath.Join(tmp, "ckpt"))
		if err != nil {
			return err
		}
		res, err := core.Place(d, core.FlowOptions{Checkpoint: mgr})
		if err != nil {
			return fmt.Errorf("placing the ECO base: %w", err)
		}
		if !res.Legal {
			return fmt.Errorf("the ECO base placement is not legal")
		}
		st, err := mgr.Load()
		if err != nil {
			return err
		}
		if err := checkpoint.WriteFile(filepath.Join(tmp, "base.ckpt"), st); err != nil {
			return err
		}
		return os.RemoveAll(filepath.Join(tmp, "ckpt"))
	}); err != nil {
		return err
	}
	d, err := bookshelf.ReadAux(filepath.Join(shared, "base.aux"))
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	var edits []ecoEdit
	for r := 0; r < ecoRounds; r++ {
		for _, k := range ecoKinds {
			edits = append(edits, ecoEdit{k, ecoScript(d, rng, k)})
		}
	}
	return writeJSONLines(filepath.Join(dir, fmt.Sprintf("seed-%d", seed), "edits.jsonl"), edits)
}

// ecoScript draws one edit of the given kind. Insertions are spliced at
// a random anchor cell's nets, like a buffer or gate insertion;
// reweights raise 20 random nets to weight 4; the blockage covers 4% of
// the region at the study's off-centre spot, the same in every round, so
// the stream repeats one input and its outputs must repeat bit for bit.
func ecoScript(d *netlist.Design, rng *rand.Rand, kind string) eco.Script {
	cells := ecoBaseSpec().NumCells
	switch kind {
	case "ins0.1":
		return insertScript(d, rng, max(1, cells/1000))
	case "ins1":
		return insertScript(d, rng, cells/100)
	case "ins5":
		return insertScript(d, rng, cells/20)
	case "reweight":
		var s eco.Script
		for i := 0; i < 20; i++ {
			s.ReweightNets = append(s.ReweightNets, eco.Reweight{NetID: rng.Intn(len(d.Nets)), Weight: 4})
		}
		return s
	}
	r := d.Region
	lx, ly := r.Lx+0.15*r.W(), r.Ly+0.55*r.H()
	return eco.Script{BlockRegions: []eco.Block{{Lx: lx, Ly: ly, Hx: lx + 0.2*r.W(), Hy: ly + 0.2*r.H()}}}
}

// insertScript adds n standard cells of the average cell size, each
// wired into two nets of a random existing anchor cell.
func insertScript(d *netlist.Design, rng *rand.Rand, n int) eco.Script {
	var aw, ah float64
	var movable []int
	for i := range d.Cells {
		if c := &d.Cells[i]; !c.Fixed && c.Kind == netlist.StdCell {
			aw += c.W
			ah += c.H
			movable = append(movable, i)
		}
	}
	aw, ah = aw/float64(len(movable)), ah/float64(len(movable))
	var s eco.Script
	for i := 0; i < n; i++ {
		anchor := &d.Cells[movable[rng.Intn(len(movable))]]
		var nets []int
		for _, pi := range anchor.Pins {
			ni := d.Pins[pi].Net
			if len(nets) == 0 || nets[0] != ni {
				nets = append(nets, ni)
			}
			if len(nets) == 2 {
				break
			}
		}
		for len(nets) < 2 {
			nets = append(nets, rng.Intn(len(d.Nets)))
		}
		s.AddCells = append(s.AddCells, eco.AddCell{Name: fmt.Sprintf("eco_ins_%d", i), W: aw, H: ah, NetIDs: nets})
	}
	return s
}

func writeJSONLines[T any](path string, items []T) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, it := range items {
		if err := enc.Encode(it); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readJSONLines[T any](path string) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []T
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var it T
		if err := dec.Decode(&it); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, it)
	}
	return out, nil
}

// ecoRun is one edit: eco.Prepare plus core.PlaceECO on a fresh copy of
// the warm-started base.
type ecoRun struct {
	kind      string
	res       core.ECOResult
	wall, cpu float64
	prepS     float64
	out       outcome
	rec       *telemetry.Recorder
}

func placeECO(b *bench, base *netlist.Design, e ecoEdit, gp core.Options, traced bool, op int) ecoRun {
	r := ecoRun{kind: e.Kind}
	d := base.Clone()
	fixed := fixedCells(d)
	fixedAt := positions(d, fixed)
	if traced {
		r.rec = telemetry.New()
		gp.Telemetry = r.rec
	}
	script := e.Script
	root := b.led.begin("op."+e.Kind, 0, op)
	c0, t0 := cpuSeconds(), time.Now()
	sp := b.led.begin("eco.Prepare", root, op)
	prep, err := eco.Prepare(d, &script, eco.PlanOptions{})
	r.prepS = time.Since(t0).Seconds()
	b.led.end(sp)
	if err == nil {
		sp = b.led.begin("core.PlaceECO", root, op)
		r.res, err = core.PlaceECO(context.Background(), d, prep.Plan, core.ECOOptions{GP: gp})
		b.led.end(sp)
	}
	r.wall, r.cpu = time.Since(t0).Seconds(), cpuSeconds()-c0
	b.led.end(root)
	if err != nil {
		r.out.err = err
		return r
	}
	sp = b.led.begin("check", 0, op)
	defer b.led.end(sp)
	// Fixed cells of the base only: the edit adds fixed blockages.
	r.out = checkPlacement(d, r.res.HPWL, r.res.Legal, fixed, fixedAt)
	if r.out.err == nil && (r.res.GP.Diverged || r.res.GP.Stagnated) {
		r.out.err = fmt.Errorf("eGP diverged=%v stagnated=%v", r.res.GP.Diverged, r.res.GP.Stagnated)
	}
	if r.out.err == nil {
		if ci := unmoved(d, prep.Plan.Frozen, positions(base, prep.Plan.Frozen)); ci >= 0 {
			r.out.err = fmt.Errorf("frozen cell %d moved", ci)
		}
	}
	if r.out.err == nil {
		r.out.err = checkBlocks(d, script.BlockRegions)
	}
	return r
}

func sameECO(a, b ecoRun) error {
	if a.res.HPWL != b.res.HPWL {
		return fmt.Errorf("%s: HPWL %.17g vs %.17g", a.kind, a.res.HPWL, b.res.HPWL)
	}
	if ok, why := telemetry.DigestsEqual(a.res.Digests, b.res.Digests); !ok {
		return fmt.Errorf("%s: golden digests differ: %s", a.kind, why)
	}
	return nil
}

func runECO(b *bench) error {
	shared := filepath.Join(b.dir, "shared")
	aux, ckpt := filepath.Join(shared, "base.aux"), filepath.Join(shared, "base.ckpt")
	edits, err := readJSONLines[ecoEdit](filepath.Join(b.dir, fmt.Sprintf("seed-%d", b.seed), "edits.jsonl"))
	if err != nil {
		return err
	}
	var base *netlist.Design
	var gp core.Options
	var state *checkpoint.State
	setup := func() error {
		d, err := readDesign(b, aux)
		if err != nil {
			return err
		}
		sp := b.led.begin("checkpoint.ReadFile", 0, 0)
		st, err := checkpoint.ReadFile(ckpt)
		b.led.end(sp)
		if err != nil {
			return err
		}
		sp = b.led.begin("core.WarmStart", 0, 0)
		err = core.WarmStart(d, st)
		b.led.end(sp)
		// Stay on the backend the warm start came from, as the CLI does.
		base, gp, state = d, core.Options{Workers: 1, Poisson: st.Poisson}, st
		return err
	}
	if err := b.timeSetup(setup); err != nil {
		return err
	}

	var firstBlock *ecoRun
	var traced []ecoRun
	ops := 0
	var last time.Duration
	start := time.Now()
	b.led.opStart()
	for rounds := 0; b.roundsLeft(start, rounds, last); rounds++ {
		t := time.Now()
		for _, e := range edits[(rounds*len(ecoKinds))%len(edits):][:len(ecoKinds)] {
			ops++
			r := placeECO(b, base, e, gp, b.traced, ops)
			err := r.out.err
			if err == nil && e.Kind == "block" {
				if firstBlock == nil {
					firstBlock = &r
				} else {
					err = sameECO(*firstBlock, r)
				}
			}
			if err != nil {
				b.problem("%s op %d (%s): %v", b.name, ops, e.Kind, err)
			}
			b.regularOp(r.wall, r.cpu, r.out.hpwl, err == nil)
			if b.traced {
				b.traceECO(r)
				if rounds == 0 {
					traced = append(traced, r)
				}
			}
		}
		last = time.Since(t)
		if _, err := b.setupAgain(setup); err != nil {
			return err
		}
	}
	if b.traced {
		return b.ecoExtras(base, edits[:len(ecoKinds)], gp, traced, state, ckpt, aux)
	}
	return nil
}

// traceECO adds one traced edit to the ledger.
func (b *bench) traceECO(r ecoRun) {
	l := b.led
	kern := l.addGP(r.rec, r.res.Stages, map[string]core.Result{"eGP": r.res.GP})
	l.sum["eco.prepare_s"] += r.prepS
	l.sum["eco.egp_s"] += r.res.StageTime["eGP"].Seconds()
	l.sum["eco.cdp_s"] += r.res.StageTime["cDP"].Seconds()
	l.sum["eco.egp_iters"] += float64(r.res.GP.Iterations)
	l.sum["eco.active_cells"] += float64(r.res.ActiveCells)
	l.sum["eco.frozen_cells"] += float64(r.res.FrozenCells)
	l.sum["legalize.offsite_cells"] += float64(r.out.offsite)
	br := breakdown(r.kind, r.wall, r.res.Stages, map[string]float64{"eco.Prepare": r.prepS})
	br.Kernels = kern
	l.sum["core.other_s"] += br.Parts["core.other_s"]
	l.opDone(br)
}

// ecoExtras replays the first round untraced (tracing overhead) and at
// workers=nproc (parallel speed-up, worker-count determinism), and times
// the checkpoint layer in isolation.
func (b *bench) ecoExtras(base *netlist.Design, round []ecoEdit, gp core.Options, traced []ecoRun, st *checkpoint.State, ckpt, aux string) error {
	l := b.led
	l.finishGP()
	var serialS, plainS, parS, serialGP, parGP, serialCDP, parCDP float64
	par := gp
	par.Workers = b.nproc
	for k, e := range round {
		plain := placeECO(b, base, e, gp, false, 0)
		var alt ecoRun
		b.withAllCPUs(func() { alt = placeECO(b, base, e, par, true, 0) })
		for _, r := range []ecoRun{plain, alt} {
			if err := r.out.err; err != nil {
				b.problem("%s side measurement: %v", b.name, err)
			} else if err := sameECO(traced[k], r); err != nil {
				b.problem("%s: traced/untraced or worker-count determinism: %v", b.name, err)
			}
		}
		plainS += plain.wall
		serialS += traced[k].wall
		parS += alt.wall
		serialGP += traced[k].res.StageTime["eGP"].Seconds()
		parGP += alt.res.StageTime["eGP"].Seconds()
		serialCDP += traced[k].res.StageTime["cDP"].Seconds()
		parCDP += alt.res.StageTime["cDP"].Seconds()
	}
	n := float64(len(round))
	l.set["trace.overhead_s"] = (serialS - plainS) / n
	if b.nproc > 1 {
		l.set["parallel.op_speedup"] = serialS / parS
		l.set["parallel.mgp_speedup"] = serialGP / parGP
		l.set["parallel.cdp_speedup"] = serialCDP / parCDP
	}
	l.set["bookshelf.read_s"] = l.medianSpan("bookshelf.ReadAux")
	l.set["bookshelf.bytes"] = float64(designBytes(aux))
	l.set["checkpoint.read_s"] = l.medianSpan("checkpoint.ReadFile")
	if fi, err := os.Stat(ckpt); err == nil {
		l.set["checkpoint.bytes"] = float64(fi.Size())
	}
	ms, err := timeCheckpointWrite(b, st)
	if err != nil {
		return err
	}
	l.set["checkpoint.write_ms"] = ms
	return nil
}

// timeCheckpointWrite is the median of three isolated checkpoint
// writes of st into the run's directory, in milliseconds.
func timeCheckpointWrite(b *bench, st *checkpoint.State) (float64, error) {
	path := filepath.Join(b.dir, fmt.Sprintf("write-%d.ckpt", os.Getpid()))
	defer os.Remove(path)
	var ts []float64
	for i := 0; i < 3; i++ {
		sp := b.led.begin("checkpoint.WriteFile", 0, 0)
		err := checkpoint.WriteFile(path, st)
		b.led.end(sp)
		if err != nil {
			return 0, err
		}
		ts = append(ts, b.led.dur(sp)*1e3)
	}
	return quantile(ts, 0.5), nil
}
