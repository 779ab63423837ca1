package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/selfishmining"
	"repro/selfishmining/jobs"
)

// maxTracedOps caps one traced pass: cache hits take microseconds, and
// every traced operation keeps its spans in memory.
const maxTracedOps = 20000

// The traced job manager renews leases every tracedHeartbeat, far more
// often than serve's default (a third of its 15s lease), so that lease
// renewals are sampled even on jobs lasting a fraction of a second.
const (
	tracedLeaseTTL  = time.Second
	tracedHeartbeat = 50 * time.Millisecond
)

// anchor is the paper's fork anchor, whose waterfall every traced run
// prints.
var anchor = analyzeInput{P: 0.3, Gamma: 0.5, D: 2, F: 2, L: 4}

// perLayer names the per-layer figures the traced run samples, with
// their units; each reports the median of its samples.
var perLayer = []struct{ name, unit string }{
	{"service.call_us", "us"},
	{"families.compile_ms", "ms"},
	{"kernel.clone_set_us", "us"},
	{"analysis.bisection_ms", "ms"},
	{"analysis.steps", "count"},
	{"analysis.step_ms", "ms"},
	{"kernel.sweeps", "count"},
	{"kernel.sweep_us", "us"},
	{"kernel.bytes_per_sweep", "B"},
	{"kernel.greedy_ms", "ms"},
	{"kernel.eval_ms", "ms"},
	{"analysis.final_ms", "ms"},
	{"sweep.panel_ms", "ms"},
	{"jobs.submit_ms", "ms"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.run_ms", "ms"},
	{"jobs.overhead_ms", "ms"},
	{"jobs.persist_ms", "ms"},
	{"jobs.persist_bytes", "B"},
	{"lease.acquire_ms", "ms"},
	{"lease.renew_ms", "ms"},
	{"lease.release_ms", "ms"},
}

// traceRun runs the workload's traced pass and the probe, prints the
// self time per layer and the fork-anchor waterfall, and returns the
// sampled per-layer metrics.
func traceRun(ctx context.Context, cfg config, wl *workload, dir string, tr *tracer) (map[string]metric, error) {
	budget := min(time.Duration(cfg.seconds)*time.Second/2, 10*time.Second)
	overhead, err := wl.traced(ctx, tr, dir, budget)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	anchorOp, err := probe(ctx, tr, dir)
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	tr.link()
	tr.report(os.Stderr, anchorOp)
	out := map[string]metric{"trace.overhead_pct": {overhead, "%"}}
	for _, l := range perLayer {
		out[l.name] = metric{median(tr.samples[l.name]), l.unit}
	}
	out["jobs.persist_count"] = metric{ratio(float64(len(tr.samples["jobs.persist_ms"])), float64(len(tr.samples["jobs.run_ms"]))), "1/job"}
	return out, nil
}

// overheadPct is the traced time's excess over the untraced time.
func overheadPct(traced, untraced time.Duration) float64 {
	return 100 * ratio(float64(traced-untraced), float64(untraced))
}

// probe measures every layer once on fixed inputs, so that each traced
// run reports every per-layer figure even where its workload does not
// reach the layer: the fork anchor through the analysis layers, cache
// hits through the Service, one small panel, and one analyze and one
// sweep job through the traced job store. It returns the anchor's op id.
func probe(ctx context.Context, tr *tracer, dir string) (int64, error) {
	op := tr.newOp()
	root := tr.begin("analyze fork anchor", op, -1)
	if _, _, _, err := newChain().analyze(ctx, tr, op, root, anchor, false, nil); err != nil {
		return 0, err
	}
	tr.finish(root)

	svc := selfishmining.NewService(selfishmining.ServiceConfig{})
	if _, err := svc.AnalyzeContext(ctx, anchor.params()); err != nil {
		return 0, err
	}
	for i := 0; i < 200; i++ {
		if err := serviceCall(ctx, tr, svc, anchor); err != nil {
			return 0, err
		}
	}

	t := time.Now()
	if _, err := svc.SweepContext(ctx, smallSweep(0.5).sweepOptions()); err != nil {
		return 0, err
	}
	d := time.Since(t)
	tr.add("selfishmining.Service.SweepContext", tr.newOp(), -1, t, t.Add(d))
	tr.sample("sweep.panel_ms", durMs(d))

	a := anchor
	probeJobs := []jobInput{{Kind: "analyze", Analyze: &a}, {Kind: "sweep", Sweep: smallSweep(0.5)}}
	_, _, runs, err := jobPass(ctx, tr, filepath.Join(dir, "probe-jobs"), 1, func(_, i int, _ time.Duration) (jobInput, bool) {
		if i < len(probeJobs) {
			return probeJobs[i], true
		}
		return jobInput{}, false
	})
	if err != nil {
		return 0, err
	}
	return op, jobOverheads(ctx, tr, runs)
}

// serviceCall times one Service.AnalyzeDetailedContext call; cache hits
// are sampled as service.call_us.
func serviceCall(ctx context.Context, tr *tracer, svc *selfishmining.Service, in analyzeInput) error {
	op := tr.newOp()
	t := time.Now()
	_, info, err := svc.AnalyzeDetailedContext(ctx, in.params())
	end := time.Now()
	if err != nil {
		return err
	}
	tr.add("selfishmining.Service.AnalyzeDetailedContext", op, -1, t, end)
	if info.Cached {
		tr.sample("service.call_us", float64(end.Sub(t))/float64(time.Microsecond))
	}
	return nil
}

// tracedCold analyzes the workload's inputs through the layer chain, each
// input first untraced and then traced, on two chains that each compile
// their own structures. It asserts that every traced analysis's sweep
// count equals the growth of the kernel's sweep counter across it.
func tracedCold(ctx context.Context, tr *tracer, seed int64, budget time.Duration) (float64, error) {
	g, plain, traced := newAnalyzeGen(seed, streamCold), newChain(), newChain()
	var tPlain, tTraced time.Duration
	var sweeps uint64
	n := 0
	for t0 := time.Now(); time.Since(t0) < budget && n < maxTracedOps; n++ {
		in := g.next()
		_, _, d, err := plain.analyze(ctx, nil, 0, -1, in, false, nil)
		if err != nil {
			return 0, err
		}
		tPlain += d
		s0 := traced.sweeps.Value()
		op := tr.newOp()
		root := tr.begin("analyze", op, -1)
		res, _, d, err := traced.analyze(ctx, tr, op, root, in, false, nil)
		if err != nil {
			return 0, err
		}
		tr.finish(root)
		tTraced += d
		if delta := traced.sweeps.Value() - s0; delta != uint64(res.Sweeps) {
			return 0, fmt.Errorf("analysis of %+v reports %d solve sweeps, kernel_solve_sweeps_total grew by %d", in, res.Sweeps, delta)
		}
		sweeps += uint64(res.Sweeps)
	}
	fmt.Fprintf(os.Stderr, "sweep cross-check: %d traced analyses, %d solve sweeps, each equal to the kernel counter's growth\n", n, sweeps)
	return overheadPct(tTraced, tPlain), nil
}

// hotBlock is how many cache hits are timed together in tracedHot: one
// hit takes about a microsecond, too short to time alone without the
// clock reads dominating.
const hotBlock = 1000

// tracedHot analyzes the K points through the layer chain, then replays
// the Zipf sequence of Service cache hits in alternating blocks, untraced
// and traced.
func tracedHot(ctx context.Context, tr *tracer, seed int64, budget time.Duration) (float64, error) {
	pts, _ := hotInputs(seed)
	ch := newChain()
	svc := selfishmining.NewService(selfishmining.ServiceConfig{})
	for _, p := range pts {
		op := tr.newOp()
		root := tr.begin("analyze", op, -1)
		if _, _, _, err := ch.analyze(ctx, tr, op, root, p, false, nil); err != nil {
			return 0, err
		}
		tr.finish(root)
		if _, err := svc.AnalyzeContext(ctx, p.params()); err != nil {
			return 0, err
		}
	}
	_, nextPlain := hotInputs(seed)
	_, nextTraced := hotInputs(seed)
	var tPlain, tTraced time.Duration
	for t0, n := time.Now(), 0; time.Since(t0) < budget && n < maxTracedOps; n += hotBlock {
		t := time.Now()
		for i := 0; i < hotBlock; i++ {
			if _, _, err := svc.AnalyzeDetailedContext(ctx, pts[nextPlain()].params()); err != nil {
				return 0, err
			}
		}
		tPlain += time.Since(t)
		t = time.Now()
		for i := 0; i < hotBlock; i++ {
			if err := serviceCall(ctx, tr, svc, pts[nextTraced()]); err != nil {
				return 0, err
			}
		}
		tTraced += time.Since(t)
	}
	return overheadPct(tTraced, tPlain), nil
}

// tracedPanels runs the workload's panels through Service.SweepContext,
// each panel untraced and then traced on two Services; each traced panel
// is followed by its 2x2 curve's bisections through the layer chain, each
// warm-started from the previous grid point as the sweep scheduler does.
func tracedPanels(ctx context.Context, tr *tracer, seed int64, budget time.Duration) (float64, error) {
	g, ch := newPanelGen(seed), newChain()
	plain := selfishmining.NewService(selfishmining.ServiceConfig{})
	traced := selfishmining.NewService(selfishmining.ServiceConfig{})
	var tPlain, tTraced time.Duration
	for t0, n := time.Now(), 0; time.Since(t0) < budget && n < maxTracedOps; n++ {
		in := g.next()
		opts := in.sweepOptions()
		t := time.Now()
		if _, err := plain.SweepContext(ctx, opts); err != nil {
			return 0, err
		}
		tPlain += time.Since(t)
		op := tr.newOp()
		root := tr.begin("panel", op, -1)
		t = time.Now()
		if _, err := traced.SweepContext(ctx, opts); err != nil {
			return 0, err
		}
		d := time.Since(t)
		tTraced += d
		tr.add("selfishmining.Service.SweepContext", op, root, t, t.Add(d))
		tr.sample("sweep.panel_ms", durMs(d))
		var warm []float64
		for _, p := range opts.PGrid[1:] {
			_, comp, _, err := ch.analyze(ctx, tr, op, root, analyzeInput{P: p, Gamma: in.Gamma, D: 2, F: 2, L: in.L}, true, warm)
			if err != nil {
				return 0, err
			}
			warm = comp.Values()
		}
		tr.finish(root)
	}
	return overheadPct(tTraced, tPlain), nil
}

// jobRun is one finished job of a traced pass.
type jobRun struct {
	in     jobInput
	status *jobs.Status
}

// jobPass runs jobs on an in-process Manager over a fresh shared-directory
// store in multi-replica mode, wrapped in the timing store when traced.
// clients goroutines each submit next(k, i, elapsed) and wait for the job
// to end, until next says stop. It returns each client's job count, the
// time until the last job ended, and the finished jobs.
func jobPass(ctx context.Context, tr *tracer, dir string, clients int, next func(k, i int, elapsed time.Duration) (jobInput, bool)) ([]int, time.Duration, []jobRun, error) {
	ds, err := jobs.NewDirStore(dir)
	if err != nil {
		return nil, 0, nil, err
	}
	var store jobs.Store = ds
	if tr != nil {
		store = &timedStore{s: ds, tr: tr}
	}
	mgr, err := jobs.New(selfishmining.NewService(selfishmining.ServiceConfig{}), jobs.Config{
		Store: store, ReplicaID: "a", LeaseTTL: tracedLeaseTTL, Heartbeat: tracedHeartbeat,
	})
	if err != nil {
		return nil, 0, nil, err
	}
	defer mgr.Close(ctx)
	counts := make([]int, clients)
	runs := make([][]jobRun, clients)
	errs := make([]error, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				in, ok := next(k, i, time.Since(start))
				if !ok {
					return
				}
				st, err := runTracedJob(ctx, tr, mgr, in)
				if err != nil {
					errs[k] = err
					return
				}
				counts[k]++
				runs[k] = append(runs[k], jobRun{in, st})
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var all []jobRun
	for _, r := range runs {
		all = append(all, r...)
	}
	for _, err := range errs {
		if err != nil {
			return nil, 0, nil, err
		}
	}
	return counts, wall, all, nil
}

// runTracedJob submits one job, waits on its event log until it ends, and
// samples its submit, queue-wait and run times.
func runTracedJob(ctx context.Context, tr *tracer, mgr *jobs.Manager, in jobInput) (*jobs.Status, error) {
	req := jobs.Request{Kind: jobs.Kind(in.Kind)}
	if in.Analyze != nil {
		a := in.Analyze
		req.Analyze = &jobs.AnalyzeSpec{Model: a.Model, P: a.P, Gamma: a.Gamma, Depth: a.D, Forks: a.F, Len: a.L}
	} else {
		s := in.Sweep
		req.Sweep = &jobs.SweepSpec{Gamma: s.Gamma, PGrid: s.PGrid, Len: s.L}
		for _, c := range s.Configs {
			req.Sweep.Configs = append(req.Sweep.Configs, jobs.SweepConfig{Depth: c.D, Forks: c.F})
		}
	}
	op := tr.newOp()
	root := tr.begin("job "+in.Kind, op, -1)
	t := time.Now()
	st, err := mgr.Submit(req)
	if err != nil {
		return nil, err
	}
	tr.add("jobs.Manager.Submit", op, root, t, time.Now())
	tr.sample("jobs.submit_ms", durMs(time.Since(t)))
	tr.setJobRoot(st.ID, root)
	var after int64
	for {
		evs, err := mgr.Events(ctx, st.ID, after)
		if err != nil {
			return nil, err
		}
		if len(evs) == 0 {
			break
		}
		after = evs[len(evs)-1].Seq
	}
	st, err = mgr.Get(st.ID)
	if err != nil {
		return nil, err
	}
	tr.finish(root)
	if st.State != jobs.StateDone || st.StartedAt == nil || st.FinishedAt == nil {
		return nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	tr.sample("jobs.queue_wait_ms", durMs(st.StartedAt.Sub(st.SubmittedAt)))
	tr.sample("jobs.run_ms", durMs(st.FinishedAt.Sub(*st.StartedAt)))
	return st, nil
}

// tracedJobs runs the workload's two job streams in-process, untraced for
// budget and then traced for the same jobs, and then solves each traced
// job's input synchronously: a traced layer-chain analysis for analyze
// jobs, Service.SweepContext for sweep jobs. A job's run time minus that
// synchronous time is its jobs.overhead_ms; the two results must agree.
func tracedJobs(ctx context.Context, tr *tracer, seed int64, dir string, budget time.Duration) (float64, error) {
	gens := []*jobGen{newJobGen(seed, 0), newJobGen(seed, 1)}
	counts, untraced, _, err := jobPass(ctx, nil, filepath.Join(dir, "jobs-untraced"), 2, func(k, _ int, elapsed time.Duration) (jobInput, bool) {
		return gens[k].next(), elapsed < budget
	})
	if err != nil {
		return 0, err
	}
	gens = []*jobGen{newJobGen(seed, 0), newJobGen(seed, 1)}
	_, traced, runs, err := jobPass(ctx, tr, filepath.Join(dir, "jobs-traced"), 2, func(k, i int, _ time.Duration) (jobInput, bool) {
		return gens[k].next(), i < counts[k]
	})
	if err != nil {
		return 0, err
	}
	if err := jobOverheads(ctx, tr, runs); err != nil {
		return 0, err
	}
	return overheadPct(traced, untraced), nil
}

// jobOverheads solves each finished job's input synchronously: through
// the traced layer chain for analyze jobs, through Service.SweepContext
// for sweep jobs. A job's run time minus that synchronous time is its
// jobs.overhead_ms; the two results must agree bit for bit.
func jobOverheads(ctx context.Context, tr *tracer, runs []jobRun) error {
	ch, ref := newChain(), selfishmining.NewService(selfishmining.ServiceConfig{})
	for _, r := range runs {
		var solo time.Duration
		if in := r.in.Analyze; in != nil {
			op := tr.newOp()
			root := tr.begin("analyze (job input)", op, -1)
			res, _, d, err := ch.analyze(ctx, tr, op, root, *in, false, nil)
			if err != nil {
				return err
			}
			tr.finish(root)
			if got := r.status.Result; got == nil || !sameBits(got.ERRev, res.ERRev) || !sameBits(got.ERRevUpper, res.BetaUp) {
				return fmt.Errorf("analyze job %s: result differs from the layer chain's", r.status.ID)
			}
			solo = d
		} else {
			t := time.Now()
			fig, err := ref.SweepContext(ctx, r.in.Sweep.sweepOptions())
			if err != nil {
				return err
			}
			solo = time.Since(t)
			if err := checkFigure(sweepResult(r.status.SweepResult), fig); err != nil {
				return fmt.Errorf("sweep job %s: %w", r.status.ID, err)
			}
		}
		tr.sample("jobs.overhead_ms", durMs(r.status.FinishedAt.Sub(*r.status.StartedAt)-solo))
	}
	return nil
}

// sweepResult is a job's stored panel in the form of a panel answer.
func sweepResult(r *jobs.SweepResult) *sweepOut {
	out := &sweepOut{}
	if r == nil {
		return out
	}
	out.Title, out.X = r.Title, r.X
	for _, s := range r.Series {
		out.Series = append(out.Series, wireSeries{s.Name, s.Values})
	}
	return out
}
