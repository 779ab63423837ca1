package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/families"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/selfishmining/jobs"
)

// epsilon is the analysis precision cmd/serve uses by default.
const epsilon = 1e-4

type structKey struct {
	model   string
	d, f, l int
}

// chain drives one analysis through the layers selfishmining.Service
// uses, one public call per layer: families.Compile (once per structure,
// as the Service's structure cache does), Clone plus SetChainParams, and
// analysis.AnalyzeCompiledContext. For a full analysis it then repeats
// the strategy tail's two kernel calls, GreedyPolicy and EvalERRevCtx, to
// time them on their own; both must reproduce the analysis's strategy and
// its revenue bit for bit.
type chain struct {
	structs map[structKey]*kernel.Compiled
	// sweeps is kernel_solve_sweeps_total{variant="jacobi"}: read at the
	// last bisection step, it splits the solve sweeps between the
	// bisection and the final solve.
	sweeps *obs.Counter
}

func newChain() *chain {
	return &chain{
		structs: map[structKey]*kernel.Compiled{},
		sweeps:  obs.Default().CounterVec("kernel_solve_sweeps_total", "", "variant").With(kernel.VariantJacobi.String()),
	}
}

// bytesPerSweep is the memory one Jacobi sweep streams, computed from the
// structure's size: per transition a 4-byte destination, 4-byte metadata,
// 4-byte probability and the 8-byte value it gathers; per state an 8-byte
// row offset and the 8-byte value written.
func bytesPerSweep(c *kernel.Compiled) float64 {
	return 20*float64(c.NumTransitions()) + 16*float64(c.NumStates())
}

// analyze runs one analysis under parent and returns the result, the
// solved instance and the time spent in the chain itself (compile, clone
// and the analysis; not the repeated tail calls).
func (ch *chain) analyze(ctx context.Context, tr *tracer, op int64, parent int, in analyzeInput, boundOnly bool, init []float64) (*analysis.Result, *kernel.Compiled, time.Duration, error) {
	t0 := time.Now()
	key := structKey{model: in.Model, d: in.D, f: in.F, l: in.L}
	base, ok := ch.structs[key]
	if !ok {
		var err error
		base, err = families.Compile(in.Model, core.Params{P: 0.1, Gamma: 0.5, Depth: in.D, Forks: in.F, MaxLen: in.L})
		if err != nil {
			return nil, nil, 0, err
		}
		ch.structs[key] = base
		if tr != nil {
			tr.add("families.Compile", op, parent, t0, time.Now())
			tr.sample("families.compile_ms", durMs(time.Since(t0)))
		}
	}
	tc := time.Now()
	comp := base.Clone()
	comp.SetWorkers(0)
	if err := comp.SetChainParams(in.P, in.Gamma); err != nil {
		return nil, nil, 0, err
	}
	ta := time.Now()
	opts := analysis.Options{Epsilon: epsilon, Kernel: kernel.VariantJacobi, SkipStrategy: boundOnly, InitialValues: init}
	lastStep, s0, sLast := ta, ch.sweeps.Value(), uint64(0)
	if tr != nil {
		opts.Progress = func(_, _ float64, _ int) {
			lastStep, sLast = time.Now(), ch.sweeps.Value()
		}
	}
	res, err := analysis.AnalyzeCompiledContext(ctx, comp, opts)
	tEnd := time.Now()
	if err != nil {
		return nil, nil, 0, err
	}
	chainTime := tEnd.Sub(t0)
	if tr == nil {
		return res, comp, chainTime, nil
	}
	tr.add("kernel.CloneSet", op, parent, tc, ta)
	tr.sample("kernel.clone_set_us", float64(ta.Sub(tc))/float64(time.Microsecond))
	aid := tr.add("analysis.AnalyzeCompiledContext", op, parent, ta, tEnd)
	tr.add("analysis.bisection", op, aid, ta, lastStep)
	bis := lastStep.Sub(ta)
	bisSweeps := float64(sLast - s0)
	tr.sample("analysis.bisection_ms", durMs(bis))
	tr.sample("analysis.steps", float64(res.Iterations))
	tr.sample("analysis.step_ms", durMs(bis)/float64(res.Iterations))
	tr.sample("kernel.sweeps", bisSweeps)
	tr.sample("kernel.sweep_us", ratio(float64(bis)/float64(time.Microsecond), bisSweeps))
	tr.sample("kernel.bytes_per_sweep", bytesPerSweep(comp))
	if boundOnly {
		return res, comp, chainTime, nil
	}
	tail := tEnd.Sub(lastStep)
	tr.add("analysis.tail", op, aid, lastStep, tEnd)

	tg := time.Now()
	policy := comp.GreedyPolicy(res.BetaLow)
	te := time.Now()
	zeta := epsilon * comp.BlockRate() / 4
	if zeta <= 0 {
		zeta = epsilon * 1e-3
	}
	errev, err := comp.EvalERRevCtx(ctx, policy, kernel.Options{Tol: zeta})
	tDone := time.Now()
	if err != nil {
		return nil, nil, 0, err
	}
	if !slices.Equal(policy, res.Strategy) || math.Float64bits(errev) != math.Float64bits(res.StrategyERRev) {
		return nil, nil, 0, fmt.Errorf("repeated strategy tail of %+v differs from the analysis's own", in)
	}
	tr.add("kernel.GreedyPolicy", op, parent, tg, te)
	tr.add("kernel.EvalERRevCtx", op, parent, te, tDone)
	tr.sample("kernel.greedy_ms", durMs(te.Sub(tg)))
	tr.sample("kernel.eval_ms", durMs(tDone.Sub(te)))
	tr.sample("analysis.final_ms", durMs(tail-te.Sub(tg)-tDone.Sub(te)))
	return res, comp, chainTime, nil
}

// timedStore wraps the shared-directory job store, timing every record
// write and lease operation as a span of the job it concerns. It forwards
// the whole LeaseStore and HealthChecker surface, so the Manager runs in
// multi-replica mode exactly as over a bare DirStore.
type timedStore struct {
	s  *jobs.DirStore
	tr *tracer
}

var (
	_ jobs.LeaseStore    = (*timedStore)(nil)
	_ jobs.HealthChecker = (*timedStore)(nil)
)

// persisted records one record write: its time, and the size of the
// snapshot file it left.
func (t *timedStore) persisted(id string, start time.Time) {
	end := time.Now()
	t.tr.addJob("jobs.store.Put", id, start, end)
	t.tr.sample("jobs.persist_ms", durMs(end.Sub(start)))
	if fi, err := os.Stat(filepath.Join(t.s.Dir(), "jobs", id+".json")); err == nil {
		t.tr.sample("jobs.persist_bytes", float64(fi.Size()))
	}
}

func (t *timedStore) Put(rec *jobs.Record) error {
	start := time.Now()
	err := t.s.Put(rec)
	t.persisted(rec.ID, start)
	return err
}

func (t *timedStore) PutLeased(rec *jobs.Record, l jobs.Lease) error {
	start := time.Now()
	err := t.s.PutLeased(rec, l)
	t.persisted(rec.ID, start)
	return err
}

func (t *timedStore) lease(name, id string, start time.Time) {
	end := time.Now()
	t.tr.addJob(name, id, start, end)
	t.tr.sample(name+"_ms", durMs(end.Sub(start)))
}

func (t *timedStore) Acquire(id, owner string, ttl time.Duration) (jobs.Lease, error) {
	start := time.Now()
	l, err := t.s.Acquire(id, owner, ttl)
	t.lease("lease.acquire", id, start)
	return l, err
}

func (t *timedStore) Renew(l jobs.Lease, ttl time.Duration) (jobs.Lease, error) {
	start := time.Now()
	nl, err := t.s.Renew(l, ttl)
	t.lease("lease.renew", l.JobID, start)
	return nl, err
}

func (t *timedStore) Release(l jobs.Lease) error {
	start := time.Now()
	err := t.s.Release(l)
	t.lease("lease.release", l.JobID, start)
	return err
}

func (t *timedStore) Get(id string) (*jobs.Record, bool, error) { return t.s.Get(id) }
func (t *timedStore) Delete(id string) error                    { return t.s.Delete(id) }
func (t *timedStore) List() ([]*jobs.Record, error)             { return t.s.List() }
func (t *timedStore) Leases() (map[string]jobs.Lease, error)    { return t.s.Leases() }
func (t *timedStore) PublishReplica(info jobs.ReplicaInfo) error {
	return t.s.PublishReplica(info)
}
func (t *timedStore) Replicas() ([]jobs.ReplicaInfo, error) { return t.s.Replicas() }
func (t *timedStore) Healthy() error                        { return t.s.Healthy() }
