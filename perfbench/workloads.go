package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/results"
	"repro/selfishmining"
)

// analyzeOut is the part of an analysis answer (POST /v1/analyze, or an
// analyze job's result) the benchmark checks.
type analyzeOut struct {
	NumStates     int      `json:"num_states"`
	ERRev         float64  `json:"errev"`
	ERRevUpper    float64  `json:"errev_upper"`
	StrategyERRev *float64 `json:"strategy_errev"`
	Iterations    int      `json:"iterations"`
	Sweeps        int      `json:"sweeps"`
	Cached        bool     `json:"cached"`
	DurationMs    float64  `json:"duration_ms"`
}

// sweepOut is a panel answer (POST /v1/sweep, or a sweep job's result).
type sweepOut struct {
	Title      string       `json:"title"`
	X          []float64    `json:"x"`
	Series     []wireSeries `json:"series"`
	DurationMs float64      `json:"duration_ms"`
}

type wireSeries struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// jobOut is a job snapshot (GET /v1/jobs/{id}).
type jobOut struct {
	ID          string      `json:"id"`
	State       string      `json:"state"`
	Error       string      `json:"error"`
	Result      *analyzeOut `json:"result"`
	SweepResult *sweepOut   `json:"sweep_result"`
	SubmittedAt time.Time   `json:"submitted_at"`
	StartedAt   *time.Time  `json:"started_at"`
	FinishedAt  *time.Time  `json:"finished_at"`
}

// primeBody is a cheap analysis (one or two bisection steps, no strategy)
// whose only purpose is to compile a structure into serve's cache.
type primeBody struct {
	analyzeInput
	Epsilon   float64 `json:"epsilon"`
	BoundOnly bool    `json:"bound_only"`
}

func primeStructures(ctx context.Context, c *client, shapes []analyzeInput) error {
	for _, s := range shapes {
		s.P, s.Gamma = 0.2, 0.5
		if err := c.do(ctx, http.MethodPost, "/v1/analyze", primeBody{s, 0.5, true}, nil); err != nil {
			return err
		}
	}
	return nil
}

// primePanel solves one grid point per configuration, compiling the
// panel's structures and the single-tree baseline.
func primePanel(ctx context.Context, c *client, configs []sweepConfig) error {
	body := map[string]any{"gamma": 0.5, "pmin": 0.3, "pmax": 0.3, "configs": configs, "l": 4}
	return c.do(ctx, http.MethodPost, "/v1/sweep", body, nil)
}

func postAnalyze(ctx context.Context, c *client, in analyzeInput) opRecord {
	out := &analyzeOut{}
	err := c.do(ctx, http.MethodPost, "/v1/analyze", in, out)
	return opRecord{kind: "analyze", in: in, out: out, err: err, serverMs: out.DurationMs}
}

func postPanel(ctx context.Context, c *client, in panelInput) opRecord {
	out := &sweepOut{}
	err := c.do(ctx, http.MethodPost, "/v1/sweep", in, out)
	return opRecord{kind: "sweep", in: in, out: out, err: err, serverMs: out.DurationMs}
}

// runJob submits a job, follows its event stream until the job ends, and
// fetches the finished record.
func runJob(ctx context.Context, c *client, in jobInput) opRecord {
	r := opRecord{kind: in.Kind, in: in, serverMs: -1}
	var sub jobOut
	if r.err = c.do(ctx, http.MethodPost, "/v1/jobs", in, &sub); r.err != nil {
		return r
	}
	if r.err = c.drain(ctx, "/v1/jobs/"+sub.ID+"/events"); r.err != nil {
		return r
	}
	out := &jobOut{}
	if r.err = c.do(ctx, http.MethodGet, "/v1/jobs/"+sub.ID, nil, out); r.err != nil {
		return r
	}
	r.out = out
	if out.State != "done" || out.FinishedAt == nil {
		r.err = fmt.Errorf("job %s ended %s: %s", out.ID, out.State, out.Error)
		return r
	}
	r.serverMs = durMs(out.FinishedAt.Sub(out.SubmittedAt))
	return r
}

func newWorkload(name string, seed int64) *workload {
	switch name {
	case wlAnalyzeCold:
		return coldWorkload(seed)
	case wlAnalyzeHot:
		return hotWorkload(seed)
	case wlSweepPanel:
		return panelWorkload(seed)
	default:
		return jobsWorkload(seed)
	}
}

func noArgs(string) []string { return nil }

func coldWorkload(seed int64) *workload {
	return &workload{
		clients: 2, serveArgs: noArgs,
		prime: func(ctx context.Context, c *client) error { return primeStructures(ctx, c, coldShapes) },
		ops: func() opFunc {
			g := newAnalyzeGen(seed, streamCold)
			var mu sync.Mutex
			return func(ctx context.Context, c *client, _ int) opRecord {
				mu.Lock()
				in := g.next()
				mu.Unlock()
				return postAnalyze(ctx, c, in)
			}
		},
		verify: verifyCold,
		traced: func(ctx context.Context, tr *tracer, _ string, budget time.Duration) (float64, error) {
			return tracedCold(ctx, tr, seed, budget)
		},
	}
}

func hotWorkload(seed int64) *workload {
	pts, _ := hotInputs(seed)
	return &workload{
		clients: 2, serveArgs: noArgs,
		prime: func(ctx context.Context, c *client) error {
			return forEach(len(pts), 2, func(i int) error {
				r := postAnalyze(ctx, c, pts[i])
				return r.err
			})
		},
		ops: func() opFunc {
			_, next := hotInputs(seed)
			var mu sync.Mutex
			return func(ctx context.Context, c *client, _ int) opRecord {
				mu.Lock()
				in := pts[next()]
				mu.Unlock()
				return postAnalyze(ctx, c, in)
			}
		},
		verify: func(ctx context.Context, recs []opRecord, _, _ counters) []string {
			return verifyHot(ctx, recs, pts)
		},
		traced: func(ctx context.Context, tr *tracer, _ string, budget time.Duration) (float64, error) {
			return tracedHot(ctx, tr, seed, budget)
		},
	}
}

func panelWorkload(seed int64) *workload {
	return &workload{
		clients: 1, serveArgs: noArgs,
		prime: func(ctx context.Context, c *client) error { return primePanel(ctx, c, panelConfigs) },
		ops: func() opFunc {
			g := newPanelGen(seed)
			return func(ctx context.Context, c *client, _ int) opRecord { return postPanel(ctx, c, g.next()) }
		},
		verify: func(ctx context.Context, recs []opRecord, _, _ counters) []string {
			verifySweeps(ctx, recs)
			return nil
		},
		traced: func(ctx context.Context, tr *tracer, _ string, budget time.Duration) (float64, error) {
			return tracedPanels(ctx, tr, seed, budget)
		},
	}
}

// jobsWorkload runs serve as replica "a" of a fleet over a fresh shared
// job directory, so every job takes a lease and writes fenced records.
func jobsWorkload(seed int64) *workload {
	return &workload{
		clients:   2,
		serveArgs: func(dir string) []string { return []string{"-jobs-dir", dir, "-replica-id", "a"} },
		prime: func(ctx context.Context, c *client) error {
			if err := primeStructures(ctx, c, []analyzeInput{{D: 3, F: 2, L: 4}}); err != nil {
				return err
			}
			return primePanel(ctx, c, []sweepConfig{{1, 1}, {2, 1}})
		},
		ops: func() opFunc {
			gens := []*jobGen{newJobGen(seed, 0), newJobGen(seed, 1)}
			return func(ctx context.Context, c *client, k int) opRecord { return runJob(ctx, c, gens[k].next()) }
		},
		verify: func(ctx context.Context, recs []opRecord, _, _ counters) []string {
			verifyJobs(ctx, recs)
			return nil
		},
		traced: func(ctx context.Context, tr *tracer, dir string, budget time.Duration) (float64, error) {
			return tracedJobs(ctx, tr, seed, dir, budget)
		},
	}
}

// forEach runs f(0..n-1) on workers goroutines and returns the first error.
func forEach(n, workers int, f func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := f(i); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// sameBits reports whether two float64 values are bitwise identical.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkBracket compares an answer's certified ERRev bracket and search
// shape with a library analysis of the same input.
func checkBracket(out *analyzeOut, ref *selfishmining.Analysis) error {
	if !sameBits(out.ERRev, ref.ERRev) || !sameBits(out.ERRevUpper, ref.ERRevUpper) ||
		out.Iterations != ref.Iterations || out.NumStates != ref.NumStates {
		return fmt.Errorf("bracket [%v, %v] (%d steps, %d states) differs from the library's [%v, %v] (%d steps, %d states)",
			out.ERRev, out.ERRevUpper, out.Iterations, out.NumStates, ref.ERRev, ref.ERRevUpper, ref.Iterations, ref.NumStates)
	}
	return nil
}

// verifyBrackets checks every answered analysis against a bound-only
// library analysis of the same input. The bracket is the same bit for bit
// as the full analysis's, whatever the warm start, and costs only the
// bisection; inputs are visited in order of p, so each reference solve
// warm-starts from a near neighbour. lanes references run at once, each
// on its share of the cores. input and output extract each record's
// analysis.
func verifyBrackets(ctx context.Context, recs []opRecord, lanes int, input func(opRecord) (analyzeInput, bool), output func(opRecord) *analyzeOut) {
	ref := selfishmining.NewService(selfishmining.ServiceConfig{})
	var order []int
	for i, r := range recs {
		if _, ok := input(r); ok && r.err == nil {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		x, _ := input(recs[order[a]])
		y, _ := input(recs[order[b]])
		return x.P < y.P
	})
	workers := max(1, runtime.NumCPU()/lanes)
	_ = forEach(len(order), lanes, func(i int) error {
		r := &recs[order[i]]
		in, _ := input(*r)
		out := output(*r)
		a, err := ref.AnalyzeContext(ctx, in.params(), selfishmining.WithBoundOnly(), selfishmining.WithWorkers(workers))
		switch {
		case err != nil:
			r.err = fmt.Errorf("library analysis of %+v: %w", in, err)
		case out.StrategyERRev == nil:
			r.err = fmt.Errorf("analysis of %+v came back without a strategy evaluation", in)
		default:
			if err := checkBracket(out, a); err != nil {
				r.err = fmt.Errorf("%+v: %w", in, err)
			}
		}
		return nil // mismatches are recorded per operation
	})
}

func verifyCold(ctx context.Context, recs []opRecord, before, after counters) []string {
	var sweeps float64
	for _, r := range recs {
		if out, ok := r.out.(*analyzeOut); ok {
			sweeps += float64(out.Sweeps)
		}
	}
	verifyBrackets(ctx, recs, 2,
		func(r opRecord) (analyzeInput, bool) { in, ok := r.in.(analyzeInput); return in, ok },
		func(r opRecord) *analyzeOut { return r.out.(*analyzeOut) })
	// Cold full analyses never warm-start, so the sweeps the answers
	// report must add up to the kernel's own counter exactly.
	jacobi := `variant="jacobi"`
	delta := after.prom.sum("kernel_solve_sweeps_total", jacobi) - before.prom.sum("kernel_solve_sweeps_total", jacobi)
	if delta != sweeps {
		return []string{fmt.Sprintf("answers report %v solve sweeps, kernel_solve_sweeps_total grew by %v", sweeps, delta)}
	}
	return nil
}

// verifyHot checks every answer against a full library analysis of its
// point: bracket, strategy revenue and sweep count.
func verifyHot(ctx context.Context, recs []opRecord, pts []analyzeInput) []string {
	ref := selfishmining.NewService(selfishmining.ServiceConfig{})
	want := make([]*selfishmining.Analysis, len(pts))
	if err := forEach(len(pts), 2, func(i int) error {
		var err error
		want[i], err = ref.AnalyzeContext(ctx, pts[i].params())
		return err
	}); err != nil {
		return []string{fmt.Sprintf("library analysis: %v", err)}
	}
	byInput := make(map[analyzeInput]*selfishmining.Analysis, len(pts))
	for i, p := range pts {
		byInput[p] = want[i]
	}
	for i := range recs {
		r := &recs[i]
		if r.err != nil {
			continue
		}
		out, a := r.out.(*analyzeOut), byInput[r.in.(analyzeInput)]
		if err := checkBracket(out, a); err != nil {
			r.err = err
		} else if out.StrategyERRev == nil || !sameBits(*out.StrategyERRev, a.StrategyERRev) || out.Sweeps != a.Sweeps {
			r.err = fmt.Errorf("%+v: strategy revenue or sweep count differs from the library's", r.in)
		}
	}
	return nil
}

// checkFigure compares a panel answer with the library's figure.
func checkFigure(out *sweepOut, fig *results.Figure) error {
	if out.Title != fig.Title || len(out.X) != len(fig.X) || len(out.Series) != len(fig.Series) {
		return fmt.Errorf("panel %q with %d points and %d series differs in shape from the library's %q (%d, %d)",
			out.Title, len(out.X), len(out.Series), fig.Title, len(fig.X), len(fig.Series))
	}
	for i, x := range fig.X {
		if !sameBits(out.X[i], x) {
			return fmt.Errorf("panel %q: x[%d] = %v, library %v", out.Title, i, out.X[i], x)
		}
	}
	for s, series := range fig.Series {
		got := out.Series[s]
		if got.Name != series.Name || len(got.Values) != len(series.Values) {
			return fmt.Errorf("panel %q: series %d is %q, library %q", out.Title, s, got.Name, series.Name)
		}
		for i, v := range series.Values {
			if !sameBits(got.Values[i], v) {
				return fmt.Errorf("panel %q: %s at p=%v is %v, library %v", out.Title, series.Name, fig.X[i], got.Values[i], v)
			}
		}
	}
	return nil
}

// referenceFigure computes a panel with the library on its batched
// multi-lane path, which shares no scheduling with the per-point path
// serve runs and yields the same figure bit for bit, on one core: the
// checks run two panels at a time.
func referenceFigure(ctx context.Context, ref *selfishmining.Service, opts selfishmining.SweepOptions) (*results.Figure, error) {
	opts.BatchLanes, opts.Workers = selfishmining.AutoBatchLanes, 1
	return ref.SweepContext(ctx, opts)
}

// verifyFigures checks every answered panel or sweep job against the
// library's figure; panel extracts a record's options and answer (ok
// false for records that are no sweep).
func verifyFigures(ctx context.Context, recs []opRecord, panel func(opRecord) (selfishmining.SweepOptions, *sweepOut, bool)) {
	ref := selfishmining.NewService(selfishmining.ServiceConfig{})
	_ = forEach(len(recs), 2, func(i int) error {
		r := &recs[i]
		opts, out, ok := panel(*r)
		if r.err != nil || !ok {
			return nil
		}
		fig, err := referenceFigure(ctx, ref, opts)
		if err == nil {
			err = checkFigure(out, fig)
		}
		if err != nil {
			r.err = fmt.Errorf("panel gamma=%v: %w", opts.Gamma, err)
		}
		return nil // mismatches are recorded per operation
	})
}

func verifySweeps(ctx context.Context, recs []opRecord) {
	verifyFigures(ctx, recs, func(r opRecord) (selfishmining.SweepOptions, *sweepOut, bool) {
		return r.in.(panelInput).sweepOptions(), r.out.(*sweepOut), true
	})
}

func verifyJobs(ctx context.Context, recs []opRecord) {
	verifyFigures(ctx, recs, func(r opRecord) (selfishmining.SweepOptions, *sweepOut, bool) {
		in := r.in.(jobInput)
		if in.Sweep == nil {
			return selfishmining.SweepOptions{}, nil, false
		}
		out := r.out.(*jobOut).SweepResult
		if out == nil {
			out = &sweepOut{}
		}
		return in.Sweep.sweepOptions(), out, true
	})
	verifyBrackets(ctx, recs, 1,
		func(r opRecord) (analyzeInput, bool) {
			in := r.in.(jobInput)
			if in.Analyze == nil {
				return analyzeInput{}, false
			}
			return *in.Analyze, true
		},
		func(r opRecord) *analyzeOut {
			if out := r.out.(*jobOut); out.Result != nil {
				return out.Result
			}
			return &analyzeOut{}
		})
}
