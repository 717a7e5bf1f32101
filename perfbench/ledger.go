package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"eplace/internal/core"
	"eplace/internal/telemetry"
)

// perLayerNames is the traced run's metric set, in BENCHMARK.json order.
// A metric whose layer a workload does not reach reads 0.
var perLayerNames = func() []string {
	names := []string{
		"bookshelf.read_s", "bookshelf.bytes",
		"core.mip_s", "core.mgp_s", "core.mgp_levels_s", "core.mgp_coarsest_s", "core.cdp_s", "core.other_s",
		"wirelength.s", "wirelength.us_per_eval",
		"density.self_s", "poisson.s", "poisson.ms_per_solve",
		"gp.unattributed_s",
		"netlist.hpwl_us", "netlist.hpwl_est_s",
		"nesterov.iters", "nesterov.grad_evals", "nesterov.backtracks",
	}
	for _, c := range []string{"iters", "grad_evals", "backtracks"} {
		for _, st := range gpStages {
			names = append(names, "nesterov."+c+"."+st)
		}
	}
	return append(names,
		"cluster.build_s", "cluster.levels", "cluster.coarsest_cells",
		"legalize.cells_s", "legalize.offsite_cells",
		"detail.s", "detail.reorder_s", "detail.swap_s", "detail.ism_s", "detail.relocate_s",
		"eco.prepare_s", "eco.egp_s", "eco.cdp_s", "eco.egp_iters", "eco.active_cells", "eco.frozen_cells",
		"checkpoint.read_s", "checkpoint.bytes", "checkpoint.write_ms",
		"server.submit_ms", "server.wait_s", "server.run_s", "server.overhead_s", "server.polls_per_job",
		"runtime.alloc_mb_per_op", "runtime.gc_cycles_per_op", "runtime.gc_cpu_s_per_op",
		"parallel.op_speedup", "parallel.mgp_speedup", "parallel.cdp_speedup",
		"trace.overhead_s",
	)
}()

// gpStages are the global-placement stages whose Nesterov counts are
// reported one by one: the flat or finest mGP, the V-cycle's coarse
// levels, and the ECO warm start.
var gpStages = []string{"mGP", "mGP_L1", "mGP_L2", "mGP_L3", "eGP"}

func perLayerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "bytes"):
		return "bytes"
	case strings.HasSuffix(name, "_mb_per_op"):
		return "MB"
	case strings.HasSuffix(name, "speedup"):
		return "x"
	case strings.HasSuffix(name, "_ms"), strings.HasSuffix(name, "ms_per_solve"):
		return "ms"
	case strings.HasSuffix(name, "_us"), strings.HasSuffix(name, "us_per_eval"):
		return "us"
	case strings.HasSuffix(name, "_s"), strings.HasSuffix(name, ".s"), strings.HasSuffix(name, "_s_per_op"):
		return "s"
	}
	return "count"
}

// span is one timed call from the benchmark into a layer. Spans of one
// operation share Op; Parent is the enclosing span's ID (0 = none).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Op     int     `json:"op,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// opBreakdown splits one traced operation's wall time into the program's
// stage aggregates, the benchmark's own spans around calls (eco.Prepare,
// HTTP), and core.other_s, the remainder no stage covers. The parts add
// up to WallS.
type opBreakdown struct {
	Op    int                `json:"op"`
	Kind  string             `json:"kind"`
	WallS float64            `json:"wall_s"`
	Parts map[string]float64 `json:"parts"`
	// Kernels holds the recorder's stage/kernel aggregates in seconds.
	Kernels map[string]float64 `json:"kernels,omitempty"`
}

// ledger is a traced run's span store and per-layer accumulator. Spans
// stay in memory and are written out once, when the run ends. Every
// method is a no-op on a nil ledger, which is what untraced runs carry.
type ledger struct {
	t0    time.Time
	mu    sync.Mutex // guards spans: closed-loop clients trace concurrently
	spans []span
	ops   []opBreakdown
	// sum accumulates per-operation values that are reported as means
	// over n traced operations; set holds values reported as they are.
	sum map[string]float64
	n   int
	set map[string]float64
	rt  rtSample
}

func newLedger() *ledger {
	return &ledger{t0: time.Now(), sum: map[string]float64{}, set: map[string]float64{}}
}

func (l *ledger) begin(name string, parent, op int) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Seconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(l.spans)
}

func (l *ledger) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.t0).Seconds()
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

func (l *ledger) dur(id int) float64 {
	if l == nil || id == 0 {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.spans[id-1].End - l.spans[id-1].Start
}

// medianSpan is the median duration of the spans with the given name.
func (l *ledger) medianSpan(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var ds []float64
	for _, s := range l.spans {
		if s.Name == name {
			ds = append(ds, s.End-s.Start)
		}
	}
	return quantile(ds, 0.5)
}

func (l *ledger) value(name string) float64 {
	if v, ok := l.set[name]; ok {
		return v
	}
	if l.n == 0 {
		return 0
	}
	return l.sum[name] / float64(l.n)
}

// opStart marks the start of the traced operations whose runtime/metrics
// deltas are averaged per operation.
func (l *ledger) opStart() {
	if l != nil && l.n == 0 {
		l.rt = readRuntime()
	}
}

// opDone closes one traced operation.
func (l *ledger) opDone(br opBreakdown) {
	if l == nil {
		return
	}
	l.n++
	br.Op = len(l.ops) + 1
	l.ops = append(l.ops, br)
	rt := readRuntime()
	n := float64(l.n)
	l.set["runtime.alloc_mb_per_op"] = (rt.allocBytes - l.rt.allocBytes) / n / (1 << 20)
	l.set["runtime.gc_cycles_per_op"] = (rt.gcCycles - l.rt.gcCycles) / n
	l.set["runtime.gc_cpu_s_per_op"] = (rt.gcCPU - l.rt.gcCPU) / n
}

// gpTotals sums the recorder's kernel aggregates over global-placement
// stages.
type gpTotals struct {
	wl, den, poi, stage float64
	wlEvals, solves     int64
}

// stageKernels reads the recorder's per-stage kernel aggregates. A GP
// stage is one with wirelength gradient evaluations; its time splits
// into wirelength, density self time, the Poisson solve (a child of
// density) and the unattributed rest (Nesterov vector work, HPWL, the
// golden digest, telemetry).
func stageKernels(rec *telemetry.Recorder, stages []core.StageSpan) (map[string]float64, gpTotals, map[string]int64) {
	kern := map[string]float64{}
	evals := map[string]int64{}
	var g gpTotals
	for _, st := range rec.SpanTotals() {
		if st.Kernel == "" {
			continue
		}
		kern[st.Stage+"/"+st.Kernel] = st.Seconds
		switch {
		case st.Kernel == "wirelength":
			g.wl += st.Seconds
			g.wlEvals += st.Count
			evals[st.Stage] = st.Count
		case st.Kernel == "density":
			g.den += st.Seconds
		case strings.HasPrefix(st.Kernel, "poisson/"):
			g.poi += st.Seconds
			g.solves += st.Count
		}
	}
	for _, s := range stages {
		if _, ok := evals[s.Name]; ok {
			g.stage += s.Time.Seconds()
		}
	}
	return kern, g, evals
}

// gpName maps a flow stage label to its gpStages name.
func gpName(stage string) string { return strings.ReplaceAll(stage, "/", "_") }

// addGP accumulates one operation's global-placement and cDP kernels.
func (l *ledger) addGP(rec *telemetry.Recorder, stages []core.StageSpan, perStage map[string]core.Result) map[string]float64 {
	kern, g, evals := stageKernels(rec, stages)
	l.sum["wirelength.s"] += g.wl
	l.sum["density.self_s"] += g.den - g.poi
	l.sum["poisson.s"] += g.poi
	l.sum["gp.unattributed_s"] += g.stage - g.wl - g.den
	l.sum["wlevals"] += float64(g.wlEvals)
	l.sum["solves"] += float64(g.solves)
	for st, r := range perStage {
		name := gpName(st)
		l.sum["nesterov.iters."+name] += float64(r.Iterations)
		l.sum["nesterov.grad_evals."+name] += float64(evals[st])
		l.sum["nesterov.backtracks."+name] += float64(r.Backtracks)
		l.sum["nesterov.iters"] += float64(r.Iterations)
		l.sum["nesterov.grad_evals"] += float64(evals[st])
		l.sum["nesterov.backtracks"] += float64(r.Backtracks)
	}
	l.sum["legalize.cells_s"] += kern["cDP/legalize"]
	l.sum["detail.s"] += kern["cDP/detail"]
	for _, k := range []string{"reorder", "swap", "ism", "relocate"} {
		l.sum["detail."+k+"_s"] += kern["cDP/"+k]
	}
	return kern
}

// finishGP derives the per-evaluation kernel rates once all operations
// are in.
func (l *ledger) finishGP() {
	if l.sum["wlevals"] > 0 {
		l.set["wirelength.us_per_eval"] = l.sum["wirelength.s"] / l.sum["wlevals"] * 1e6
	}
	if l.sum["solves"] > 0 {
		l.set["poisson.ms_per_solve"] = l.sum["poisson.s"] / l.sum["solves"] * 1e3
	}
}

// write stores the spans, the per-operation breakdowns and the metrics.
func (l *ledger) write(dir, name string, seed int64) error {
	m := map[string]float64{}
	for _, k := range perLayerNames {
		m[k] = l.value(k)
	}
	out, err := json.MarshalIndent(map[string]any{
		"workload": name, "seed": seed, "spans": l.spans, "ops": l.ops, "metrics": m,
	}, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", name, seed))
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintln(os.Stderr, "perfbench: trace written to", path)
	return nil
}

// rtSample is a reading of the Go runtime's allocation and GC counters.
type rtSample struct{ allocBytes, gcCycles, gcCPU float64 }

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return rtSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// breakdown assembles an operation's parts from its stages plus any
// benchmark spans outside them; other is what remains of wall.
func breakdown(kind string, wall float64, stages []core.StageSpan, extra map[string]float64) opBreakdown {
	br := opBreakdown{Kind: kind, WallS: wall, Parts: map[string]float64{}}
	covered := 0.0
	for _, s := range stages {
		br.Parts[s.Name] += s.Time.Seconds()
		covered += s.Time.Seconds()
	}
	for k, v := range extra {
		br.Parts[k] += v
		covered += v
	}
	br.Parts["core.other_s"] = wall - covered
	return br
}
