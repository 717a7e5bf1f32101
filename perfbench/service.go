package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"eplace/internal/bookshelf"
	"eplace/internal/checkpoint"
	"eplace/internal/core"
	"eplace/internal/netlist"
	"eplace/internal/server"
	"eplace/internal/synth"
	"eplace/internal/telemetry"
)

// Service workload shape: a pool of small designs that two closed-loop
// clients cycle through, against a server with its default settings.
const (
	svcDesigns = 8
	svcCells   = 1200
	svcClients = 2
	svcPoll    = 5 * time.Millisecond
)

func svcDir(dir string, seed int64) string { return filepath.Join(dir, fmt.Sprintf("seed-%d", seed)) }

// genService writes the seed's designs as Bookshelf files and, next to
// each, the HTTP job spec that uploads it inline.
func genService(dir string, seed int64) error {
	out := svcDir(dir, seed)
	if _, err := os.Stat(filepath.Join(out, "job-0.json")); err == nil {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < svcDesigns; i++ {
		base := fmt.Sprintf("svc%d", i)
		ddir := filepath.Join(out, base)
		spec := synth.Spec{Name: base, NumCells: svcCells, Seed: 1 + rng.Int63n(1<<40)}
		if err := writeDesign(spec, ddir, base); err != nil {
			return err
		}
		files := map[string]string{}
		entries, err := os.ReadDir(ddir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(ddir, e.Name()))
			if err != nil {
				return err
			}
			files[e.Name()] = string(data)
		}
		body, err := json.Marshal(server.JobSpec{Files: files, Aux: base + ".aux"})
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(out, fmt.Sprintf("job-%d.json", i)), body, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// svc is a running job server and its HTTP client.
type svc struct {
	srv    *server.Server
	http   *server.HTTPServer
	url    string
	client *http.Client
	dir    string
}

func startService(dir string) (*svc, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	h, err := server.ListenAndServe("127.0.0.1:0", srv)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &svc{srv: srv, http: h, url: "http://" + h.Addr(), client: &http.Client{Timeout: 60 * time.Second}, dir: dir}, nil
}

func (s *svc) stop() error {
	s.client.CloseIdleConnections()
	err := s.http.Close()
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

func (s *svc) do(method, path string, body []byte, into any) error {
	req, err := http.NewRequest(method, s.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	switch v := into.(type) {
	case nil:
	case *[]byte:
		*v = data
	default:
		return json.Unmarshal(data, into)
	}
	return nil
}

// svcJob is one closed-loop request as its client saw it.
type svcJob struct {
	design  int
	id      string
	wall    float64 // submit to result fetched
	submitS float64
	polls   int
	status  server.JobStatus
	result  server.JobResult
	pl      []byte
	err     error
}

// runJob submits one job spec, polls until the job ends, and fetches
// its result and placed .pl, as a client of the HTTP API would.
func (s *svc) runJob(b *bench, body []byte, design, op int) svcJob {
	j := svcJob{design: design}
	root := b.led.begin("op.job", 0, op)
	defer b.led.end(root)
	t0 := time.Now()
	sp := b.led.begin("http.POST /jobs", root, op)
	var st server.JobStatus
	j.err = s.do("POST", "/jobs", body, &st)
	b.led.end(sp)
	j.submitS = time.Since(t0).Seconds()
	if j.err != nil {
		return j
	}
	j.id = st.ID
	sp = b.led.begin("http.GET /jobs/{id} (polls)", root, op)
	for st.State != server.StateDone && st.State != server.StateFailed && st.State != server.StateCanceled {
		time.Sleep(svcPoll)
		j.polls++
		if j.err = s.do("GET", "/jobs/"+j.id, nil, &st); j.err != nil {
			b.led.end(sp)
			return j
		}
	}
	b.led.end(sp)
	j.status = st
	if st.State != server.StateDone {
		j.err = fmt.Errorf("job %s ended %s: %s", j.id, st.State, st.Error)
		return j
	}
	sp = b.led.begin("http.GET result", root, op)
	j.err = s.do("GET", "/jobs/"+j.id+"/result", nil, &j.result)
	if j.err == nil {
		j.err = s.do("GET", "/jobs/"+j.id+"/result.pl", nil, &j.pl)
	}
	b.led.end(sp)
	j.wall = time.Since(t0).Seconds()
	return j
}

// closedLoop runs svcClients clients until the window closes, each
// submitting its next job only after the previous one's result is in.
func (s *svc) closedLoop(b *bench, bodies [][]byte, window time.Duration, maxPerClient int) []svcJob {
	var mu sync.Mutex
	var jobs []svcJob
	ops := 0
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Since(start) < window && (maxPerClient == 0 || k < maxPerClient); k++ {
				design := (c + svcClients*k) % len(bodies)
				mu.Lock()
				ops++
				op := ops
				mu.Unlock()
				j := s.runJob(b, bodies[design], design, op)
				mu.Lock()
				jobs = append(jobs, j)
				mu.Unlock()
				if j.err != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return jobs
}

// checkJob verifies a finished job against the benchmark's own copy of
// the design: the job's final checkpoint (exact float64 positions,
// fetched over HTTP) is loaded into a fresh read of the uploaded files,
// then HPWL, legality and fixed cells are checked. The .pl must name
// every cell.
func (s *svc) checkJob(local *netlist.Design, j svcJob) (outcome, *checkpoint.State, []byte) {
	if j.err != nil {
		return outcome{err: j.err}, nil, nil
	}
	var raw []byte
	if err := s.do("GET", "/jobs/"+j.id+"/checkpoint", nil, &raw); err != nil {
		return outcome{err: err}, nil, nil
	}
	st, err := checkpoint.Decode(raw)
	if err != nil {
		return outcome{err: err}, nil, nil
	}
	d := local.Clone()
	fixed := fixedCells(d)
	fixedAt := positions(d, fixed)
	if err := core.WarmStart(d, st); err != nil {
		return outcome{err: fmt.Errorf("job %s checkpoint: %w", j.id, err)}, nil, nil
	}
	o := checkPlacement(d, j.result.HPWL, j.result.Legal, fixed, fixedAt)
	if o.err == nil && bytes.Count(j.pl, []byte("\n")) < len(d.Cells) {
		o.err = fmt.Errorf("job %s result.pl lists fewer lines than the design's %d cells", j.id, len(d.Cells))
	}
	if o.err != nil {
		o.err = fmt.Errorf("job %s: %w", j.id, o.err)
	}
	return o, st, raw
}

func runService(b *bench) error {
	dir := svcDir(b.dir, b.seed)
	var bodies [][]byte
	var locals []*netlist.Design
	for i := 0; i < svcDesigns; i++ {
		body, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("job-%d.json", i)))
		if err != nil {
			return err
		}
		bodies = append(bodies, body)
		d, err := bookshelf.ReadAux(filepath.Join(dir, fmt.Sprintf("svc%d", i), fmt.Sprintf("svc%d.aux", i)))
		if err != nil {
			return err
		}
		locals = append(locals, d)
	}

	var s *svc
	reps := 0
	setup := func() error {
		if s != nil {
			if err := s.stop(); err != nil {
				return err
			}
		}
		reps++
		var err error
		sp := b.led.begin("server.start", 0, 0)
		s, err = startService(filepath.Join(b.dir, fmt.Sprintf("server-%d-%d", os.Getpid(), reps)))
		b.led.end(sp)
		if err != nil {
			return err
		}
		w := s.runJob(b, bodies[0], 0, 0)
		return w.err
	}
	defer func() {
		if s != nil {
			s.stop()
		}
	}()
	if err := b.timeSetup(setup); err != nil {
		return err
	}

	b.led.opStart()
	c0, t0 := cpuSeconds(), time.Now()
	jobs := s.closedLoop(b, bodies, b.duration, 0)
	cpu := cpuSeconds() - c0
	window := time.Since(t0).Seconds()
	fmt.Fprintf(os.Stderr, "perfbench: %d jobs in %.1fs\n", len(jobs), window)

	// first[design] is the first passing job per design: later jobs of
	// the same upload must match it bit for bit.
	first := map[int]svcJob{}
	var lastState *checkpoint.State
	var lastRaw []byte
	for k, j := range jobs {
		o, st, raw := s.checkJob(locals[j.design], j)
		err := o.err
		if err == nil {
			if f, ok := first[j.design]; !ok {
				first[j.design] = j
			} else if f.result.HPWL != j.result.HPWL {
				err = fmt.Errorf("design %d: HPWL %.17g vs %.17g across jobs", j.design, f.result.HPWL, j.result.HPWL)
			} else if ok, why := telemetry.DigestsEqual(f.result.Digests, j.result.Digests); !ok {
				err = fmt.Errorf("design %d: golden digests differ across jobs: %s", j.design, why)
			}
			lastState, lastRaw = st, raw
		}
		if err != nil {
			b.problem("%s job %d: %v", b.name, k+1, err)
		}
		b.regularOp(j.wall, cpu/float64(len(jobs)), o.hpwl, err == nil)
		if b.traced && j.err == nil {
			b.traceJob(j, o)
		}
	}
	if b.traced && lastState != nil {
		if err := b.serviceExtras(s, bodies, jobs, lastState, lastRaw, dir); err != nil {
			return err
		}
	}
	// Two more set-ups after the window, so that the median set-up time
	// is not taken from the first seconds of the run alone.
	for i := 0; i < 2; i++ {
		if _, err := b.setupAgain(setup); err != nil {
			return err
		}
	}
	return nil
}

// traceJob adds one traced job to the ledger. Its breakdown is the
// server-side queue wait and the job's flow stages; core.other_s is the
// rest of the client's turnaround: HTTP submit and fetches, polling
// latency and the server's own work around the flow. (The submit span
// overlaps the wait, so it is reported as server.submit_ms only.)
func (b *bench) traceJob(j svcJob, o outcome) {
	l := b.led
	wait := 0.0
	if j.status.Started != nil {
		wait = j.status.Started.Sub(j.status.Submitted).Seconds()
	}
	var stages []core.StageSpan
	for _, st := range j.result.Stages {
		stages = append(stages, core.StageSpan{Name: st.Name, Time: time.Duration(st.Seconds * float64(time.Second))})
		switch st.Name {
		case "mIP":
			l.sum["core.mip_s"] += st.Seconds
		case "mGP":
			l.sum["core.mgp_s"] += st.Seconds
		case "cDP":
			l.sum["core.cdp_s"] += st.Seconds
		}
	}
	l.sum["nesterov.iters"] += float64(j.result.Iterations["mGP"])
	l.sum["nesterov.iters.mGP"] += float64(j.result.Iterations["mGP"])
	l.sum["server.submit_ms"] += j.submitS * 1e3
	l.sum["server.wait_s"] += wait
	l.sum["server.run_s"] += j.result.Seconds
	l.sum["server.overhead_s"] += j.wall - j.result.Seconds
	l.sum["server.polls_per_job"] += float64(j.polls)
	l.sum["legalize.offsite_cells"] += float64(o.offsite)
	br := breakdown("job", j.wall, stages, map[string]float64{"server.wait": wait})
	l.sum["core.other_s"] += br.Parts["core.other_s"]
	l.opDone(br)
}

// serviceExtras runs a short untraced closed loop for the tracing
// overhead and times the layers the server drives in isolation: the
// upload's Bookshelf parse and a job's final checkpoint read and write.
func (b *bench) serviceExtras(s *svc, bodies [][]byte, traced []svcJob, st *checkpoint.State, raw []byte, dir string) error {
	l := b.led
	var tracedLat []float64
	for _, j := range traced {
		tracedLat = append(tracedLat, j.wall)
	}
	// A nil ledger turns the benchmark's own spans off for this loop.
	saved := b.led
	b.led = nil
	plain := s.closedLoop(b, bodies, time.Hour, 3)
	b.led = saved
	var plainLat []float64
	for _, j := range plain {
		if j.err != nil {
			b.problem("%s untraced job: %v", b.name, j.err)
			continue
		}
		plainLat = append(plainLat, j.wall)
	}
	l.set["trace.overhead_s"] = quantile(tracedLat, 0.5) - quantile(plainLat, 0.5)

	aux := filepath.Join(dir, "svc0", "svc0.aux")
	var reads []float64
	for i := 0; i < 5; i++ {
		sp := l.begin("bookshelf.ReadAux", 0, 0)
		_, err := bookshelf.ReadAux(aux)
		l.end(sp)
		if err != nil {
			return err
		}
		reads = append(reads, l.dur(sp))
	}
	l.set["bookshelf.read_s"] = quantile(reads, 0.5)
	l.set["bookshelf.bytes"] = float64(len(bodies[0]))

	path := filepath.Join(b.dir, fmt.Sprintf("fetched-%d.ckpt", os.Getpid()))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	defer os.Remove(path)
	var ckReads []float64
	for i := 0; i < 5; i++ {
		sp := l.begin("checkpoint.ReadFile", 0, 0)
		_, err := checkpoint.ReadFile(path)
		l.end(sp)
		if err != nil {
			return err
		}
		ckReads = append(ckReads, l.dur(sp))
	}
	l.set["checkpoint.read_s"] = quantile(ckReads, 0.5)
	l.set["checkpoint.bytes"] = float64(len(raw))
	ms, err := timeCheckpointWrite(b, st)
	if err != nil {
		return err
	}
	l.set["checkpoint.write_ms"] = ms
	return nil
}
