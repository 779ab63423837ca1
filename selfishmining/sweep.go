package selfishmining

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/families"
	"repro/internal/kernel"
	"repro/internal/par"
	"repro/internal/results"
	adaptive "repro/internal/sweep"
	"repro/selfishmining/obs"
)

// sweepModel canonicalizes the sweep's family name for cache keys.
func sweepModel(opts SweepOptions) string {
	if opts.Model == "" {
		return families.DefaultName
	}
	return opts.Model
}

// attackSeriesName names one attack curve of a panel. The assembled figure
// and every streamed SweepPoint use this single naming, which is what lets
// stream consumers (like cmd/serve's NDJSON endpoint) match points to the
// summary's series by string equality.
func attackSeriesName(opts SweepOptions, cfg AttackConfig) string {
	model := sweepModel(opts)
	if model == families.DefaultName {
		return fmt.Sprintf("ours(d=%d,f=%d)", cfg.Depth, cfg.Forks)
	}
	return fmt.Sprintf("%s(d=%d,f=%d)", model, cfg.Depth, cfg.Forks)
}

// AttackConfig names one (d, f) curve of the paper's Figure 2.
type AttackConfig struct {
	Depth, Forks int
}

// DefaultSweepMaxForkLen is the fork length bound SweepOptions defaults to
// (the paper's l = 4). Exported so callers that must size-check a sweep
// before running it (cmd/serve's -max-states guard) resolve the same
// default the sweep will use.
const DefaultSweepMaxForkLen = 4

// AutoBatchLanes, as SweepOptions.BatchLanes, sizes each batched lane
// group automatically: the lane count is chosen so one group's per-lane
// data (probabilities plus value vectors) fits a fixed cache budget, at
// most 8 lanes. A structure too large for two lanes to fit resolves to 1,
// the solo per-point path. A zero BatchLanes resolves the same way under
// the default "jacobi" kernel.
const AutoBatchLanes = -1

// Defaults of the adaptive refinement options (see SweepOptions.Adaptive).
// Exported so the HTTP and CLI layers document and apply the same values
// the sweep would substitute.
const (
	// DefaultSweepTolerance is the refinement tolerance substituted when
	// an adaptive sweep leaves Tolerance unset.
	DefaultSweepTolerance = 1e-3
	// DefaultSweepMaxDepth is the bisection depth bound substituted when
	// an adaptive sweep leaves MaxDepth unset: each coarse cell splits
	// into at most 2^4 = 16 subcells.
	DefaultSweepMaxDepth = 4
)

// Figure2Configs are the five attack configurations evaluated in the paper.
var Figure2Configs = []AttackConfig{
	{Depth: 1, Forks: 1},
	{Depth: 2, Forks: 1},
	{Depth: 2, Forks: 2},
	{Depth: 3, Forks: 2},
	{Depth: 4, Forks: 2},
}

// SweepOptions configures a Figure-2-style parameter sweep for one γ.
type SweepOptions struct {
	// Model selects the attack-model family the attack curves are computed
	// over ("" means DefaultModel, the paper's fork model). The honest
	// baseline is included for every family; the single-tree baseline
	// series only accompanies the fork family (it is that figure's
	// comparator).
	Model string
	// Gamma is the switching probability of the sweep.
	Gamma float64
	// PGrid lists the adversary resource fractions (x-axis). Defaults to
	// 0..0.3 in steps of 0.01, as in the paper. An adaptive sweep
	// additionally requires the grid to be strictly increasing with at
	// least two points — it is the coarse grid refinement starts from.
	PGrid []float64
	// Configs lists the attack curves to compute. Defaults to
	// Figure2Configs for the fork family and to the family's default shape
	// otherwise.
	Configs []AttackConfig
	// MaxForkLen is the length bound l (default 4 for the fork family, as
	// in the paper; the family default shape's bound otherwise).
	MaxForkLen int
	// TreeWidth is the single-tree baseline width (default 5, as in the
	// paper; its depth equals MaxForkLen).
	TreeWidth int
	// Epsilon is the per-point analysis precision (default 1e-4).
	Epsilon float64
	// Kernel selects the value-iteration kernel variant every grid point is
	// solved with ("" or "jacobi" for the bitwise-deterministic default; see
	// KernelVariants). All variants certify the same ERRev values — the
	// figure is identical — but their sweep counts and runtimes differ.
	Kernel string
	// Workers is the size of the worker pool the (configuration, p) grid
	// points are distributed over; 0, the default, uses runtime.NumCPU().
	// Each attack structure is compiled once and shared; every worker
	// solves on its own clone (private probability and value buffers).
	// The computed figure is bitwise identical at every worker count.
	Workers int
	// BatchLanes groups same-configuration grid points into multi-lane
	// batched solves: K nearby p values ride one pass over the shared
	// compiled structure per value-iteration sweep (kernel.Batch), which
	// is substantially faster on memory-bound models than K separate
	// solves. 0, the default, batches with auto-sized lane groups
	// (AutoBatchLanes) under the "jacobi" kernel and keeps the solo
	// per-point path under every other kernel; AutoBatchLanes sizes lane
	// groups to a cache budget from the panel's structure sizes; 1 forces
	// the solo path; K >= 2 forces K-lane groups. An explicit lane count
	// requires the default "jacobi" kernel — the batch replicates exactly
	// its floating-point op sequence. Batched and solo sweeps compute
	// bitwise-identical figures: batching changes scheduling, never
	// results. OnPoint streaming, Resume checkpoints and the result cache
	// keep their per-point semantics in either mode. Warm starts differ:
	// a lane group seeds only from points solved before it started, so a
	// batched sweep records fewer warm-cache hits than a solo one.
	BatchLanes int

	// Adaptive switches the sweep from the uniform grid to threshold-
	// refining bisection: PGrid is solved as a coarse pass, then cells
	// whose corner values disagree by more than Tolerance are recursively
	// bisected (up to MaxDepth) wherever the midpoint proves genuine
	// curvature — which concentrates solves around the profitability
	// threshold instead of spreading them uniformly. The figure's X axis
	// becomes the union of the coarse grid and every refined midpoint.
	// Refinement decisions depend only on solved values, never on timing
	// or caches, so adaptive figures inherit the bitwise-determinism
	// contract: every emitted point is bit-identical to the same point of
	// a uniform sweep. See internal/sweep for the cell tests.
	Adaptive bool
	// Tolerance is the adaptive refinement tolerance (default
	// DefaultSweepTolerance). A cell is left alone once every curve moves
	// by at most Tolerance across it, and recursion stops once midpoints
	// sit within Tolerance of their cell's secant — so the piecewise-
	// linear rendering of the refined curve is accurate to ~Tolerance.
	Tolerance float64
	// MaxDepth bounds the bisection depth of an adaptive sweep (default
	// DefaultSweepMaxDepth); each coarse cell splits into at most
	// 2^MaxDepth subcells.
	MaxDepth int
	// MaxPoints, when > 0, caps the refined (depth ≥ 1) x-values an
	// adaptive sweep may add, truncating deterministically in ascending-p
	// order once the budget runs out.
	MaxPoints int
	// Exhaustive, with Adaptive, bisects every cell to MaxDepth ignoring
	// the tolerance tests: the uniformly refined grid with bitwise the
	// same midpoint arithmetic as an adaptive run. It is the equal-
	// fidelity uniform reference cmd/bench and the property tests compare
	// adaptive runs against.
	Exhaustive bool
	// Resume carries completed points of an earlier identical sweep (a
	// job checkpoint). Points found here are emitted verbatim without
	// solving; the bitwise-determinism contract makes the resumed sweep
	// indistinguishable from an uninterrupted one. The checkpoint must
	// come from a sweep with the same Model, Gamma, MaxForkLen, Epsilon
	// and Kernel — the sweep trusts its values verbatim.
	Resume *SweepCheckpoint

	// Progress, if non-nil, receives one line per completed point. Calls
	// are serialized, but their order across points follows the parallel
	// completion order.
	Progress func(format string, args ...any)
	// OnPoint, if non-nil, streams every attack-curve grid point as soon as
	// it completes — solved, coalesced, answered from the result cache, or
	// short-circuited (p = 0) — instead of only appearing in the final
	// figure. Calls are serialized but follow the parallel completion
	// order; the values streamed are exactly the values the final figure
	// will carry (bitwise — streaming changes delivery, never results).
	// Adaptive sweeps instead emit deterministically: refinement proceeds
	// in waves (one per bisection depth), and within a wave points are
	// held back so they stream in task order — config-major, ascending p.
	// The callback runs on sweep worker goroutines and must return
	// promptly. Baseline series (honest, single-tree) are not streamed;
	// they arrive with the figure.
	OnPoint func(SweepPoint)
}

// SweepPoint is one completed attack-curve grid point of a streaming sweep
// (SweepOptions.OnPoint).
type SweepPoint struct {
	// Config is the attack configuration (d, f) the point belongs to, and
	// Series the name of the figure series that will carry it — the same
	// string SweepContext puts on the assembled panel, so streamed points
	// can be matched to the final figure without re-deriving the naming.
	Config AttackConfig
	Series string
	// PIndex is the point's index into SweepOptions.PGrid; P is the grid
	// value there and Gamma the sweep's switching probability. Refined
	// points of an adaptive sweep lie between grid entries and carry
	// PIndex = -1.
	PIndex int
	P      float64
	Gamma  float64
	// Depth is the point's bisection depth in an adaptive sweep: 0 for
	// coarse-grid points (and every point of a uniform sweep), 1..MaxDepth
	// for refined midpoints.
	Depth int
	// ERRev is the certified lower bound at this point, bitwise equal to
	// the final figure's value.
	ERRev float64
	// Sweeps reports the value-iteration sweeps the point's analysis
	// performed when it was first solved (0 for the p = 0 shortcut; the
	// originally recorded count when served from the result cache or a
	// resume checkpoint).
	Sweeps int
}

// SweepCheckpoint carries the completed points of an interrupted sweep so
// an identical re-run can skip their solves (SweepOptions.Resume). The
// jobs layer accumulates one from the OnPoint stream and persists it with
// the job; only Config, P, ERRev and Sweeps are consulted on resume.
type SweepCheckpoint struct {
	Points []SweepPoint
}

// sweepResumeKey indexes a resume checkpoint by attack configuration and
// the exact bit pattern of p — the bitwise contract is what makes exact
// float matching sound.
type sweepResumeKey struct {
	depth, forks int
	pbits        uint64
}

// resumePoints indexes a checkpoint for O(1) lookup; nil checkpoints give
// a nil (always-missing) map.
func resumePoints(ck *SweepCheckpoint) map[sweepResumeKey]SweepPoint {
	if ck == nil || len(ck.Points) == 0 {
		return nil
	}
	m := make(map[sweepResumeKey]SweepPoint, len(ck.Points))
	for _, pt := range ck.Points {
		if math.IsNaN(pt.P) {
			continue
		}
		m[sweepResumeKey{pt.Config.Depth, pt.Config.Forks, math.Float64bits(pt.P)}] = pt
	}
	return m
}

func (o *SweepOptions) defaults() {
	if o.PGrid == nil {
		o.PGrid = results.Grid(0, 0.3, 0.01)
	}
	isFork := o.Model == "" || o.Model == families.DefaultName
	if o.Configs == nil {
		if isFork {
			o.Configs = Figure2Configs
		} else if fam, err := families.Get(o.Model); err == nil {
			d, f, _ := fam.DefaultShape()
			o.Configs = []AttackConfig{{Depth: d, Forks: f}}
		}
	}
	if o.MaxForkLen <= 0 {
		o.MaxForkLen = DefaultSweepMaxForkLen
		if !isFork {
			if fam, err := families.Get(o.Model); err == nil {
				_, _, l := fam.DefaultShape()
				o.MaxForkLen = l
			}
		}
	}
	if o.TreeWidth <= 0 {
		o.TreeWidth = 5
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 1e-4
	}
	if o.Adaptive {
		if o.Tolerance <= 0 {
			o.Tolerance = DefaultSweepTolerance
		}
		if o.MaxDepth <= 0 {
			o.MaxDepth = DefaultSweepMaxDepth
		}
		if o.MaxPoints < 0 {
			o.MaxPoints = 0
		}
	}
	if o.Progress == nil {
		o.Progress = func(string, ...any) {}
	}
}

// validateAdaptive checks the adaptive-only option surface (after
// defaults). The refinement engine re-validates; these duplicate the
// checks a caller can get wrong, with package-appropriate messages.
func (o *SweepOptions) validateAdaptive() error {
	if len(o.PGrid) < 2 {
		return fmt.Errorf("selfishmining: adaptive sweep needs a coarse grid of >= 2 points, got %d", len(o.PGrid))
	}
	for i := 1; i < len(o.PGrid); i++ {
		if !(o.PGrid[i] > o.PGrid[i-1]) {
			return fmt.Errorf("selfishmining: adaptive sweep grid must be strictly increasing, got p[%d] = %v after %v",
				i, o.PGrid[i], o.PGrid[i-1])
		}
	}
	if math.IsNaN(o.Tolerance) || math.IsInf(o.Tolerance, 0) {
		return fmt.Errorf("selfishmining: adaptive tolerance = %v is not finite", o.Tolerance)
	}
	return nil
}

// Sweep is SweepContext under context.Background().
//
// Deprecated: use SweepContext, the canonical v2 entry point, which adds
// cancellation, deadlines and point streaming. Sweep remains a thin
// wrapper and computes bit-identical figures.
func Sweep(opts SweepOptions) (*results.Figure, error) {
	return SweepContext(context.Background(), opts)
}

// SweepContext regenerates one panel of the paper's Figure 2: ERRev as a
// function of the adversary's resource p for the honest baseline, the
// single-tree baseline, and each requested attack configuration, at fixed
// γ.
//
// SweepContext runs through an ephemeral Service, so every call benefits
// from the serving layer's structure sharing (each attack structure is
// compiled once) and warm starts (each grid point seeds value iteration
// from the nearest solved p). Long-lived callers that sweep repeatedly
// should hold their own Service and call its SweepContext method, which
// additionally reuses results and structures across calls. The computed
// figure is bitwise identical at every worker count and cache state.
func SweepContext(ctx context.Context, opts SweepOptions) (*results.Figure, error) {
	return NewService(ServiceConfig{}).SweepContext(ctx, opts)
}

// Sweep is SweepContext under context.Background().
//
// Deprecated: use SweepContext, which adds cancellation, deadlines and
// point streaming; this wrapper computes bit-identical figures.
func (s *Service) Sweep(opts SweepOptions) (*results.Figure, error) {
	return s.SweepContext(context.Background(), opts)
}

// SweepContext computes one Figure-2 panel through the service's caches:
// attack structures come from the structure cache, every grid point is
// answered from the result cache when possible (and coalesced with
// identical in-flight points otherwise), and fresh points warm-start from
// the nearest solved p. See the package-level SweepContext for the panel's
// contents.
//
// With opts.Adaptive the x-axis is refined around the profitability
// threshold instead of staying on the uniform grid: PGrid becomes the
// coarse pass, and cells that prove curvature beyond opts.Tolerance are
// recursively bisected. Refined midpoints warm-start from their just-
// solved neighbors, so deep refinement is much cheaper per point than the
// coarse pass.
//
// The figure is bitwise identical at every worker count and cache state:
// grid points are bound-only analyses, whose certified bracket depends
// only on exact sign decisions (see the Service determinism notes). The
// adaptive point set is likewise deterministic — refinement decisions
// depend only on solved values — and each of its points is bit-identical
// to the same (p, γ) point of a uniform sweep.
//
// ctx cancels the sweep: workers stop drawing new grid points, the point
// being solved stops at its next value-iteration sweep boundary, and the
// call returns a *CancelError (ErrCanceled). Completed points stay in the
// result and warm-start caches — they are full, untainted solves — so a
// re-run resumes from them and still produces the bitwise-identical
// panel. SweepOptions.OnPoint streams each completed point; points
// delivered before a cancellation are exactly the values the full panel
// would have carried, and a checkpoint built from them can skip their
// solves in a later run (SweepOptions.Resume).
func (s *Service) SweepContext(ctx context.Context, opts SweepOptions) (*results.Figure, error) {
	opts.defaults()
	if opts.Gamma < 0 || opts.Gamma > 1 || math.IsNaN(opts.Gamma) {
		return nil, fmt.Errorf("selfishmining: sweep gamma = %v outside [0, 1]", opts.Gamma)
	}
	if err := ValidateKernel(opts.Kernel); err != nil {
		return nil, fmt.Errorf("selfishmining: %w", err)
	}
	if opts.BatchLanes < AutoBatchLanes {
		return nil, fmt.Errorf("selfishmining: sweep BatchLanes = %d (want 0 for the default, AutoBatchLanes, or a positive lane count)", opts.BatchLanes)
	}
	if opts.BatchLanes != 0 {
		if kv, _ := kernel.ParseVariant(opts.Kernel); kv != kernel.VariantJacobi {
			return nil, fmt.Errorf("selfishmining: batched sweeps support only the default %q kernel, got %q", kernel.VariantJacobi, kv)
		}
	}
	if opts.Adaptive {
		if err := opts.validateAdaptive(); err != nil {
			return nil, err
		}
	}
	fam, err := families.Get(opts.Model)
	if err != nil {
		return nil, err
	}
	isFork := fam.Name() == families.DefaultName
	// Validate every (config, p) grid point up front, so one bad point
	// cannot waste a partially solved panel. Adaptive midpoints lie
	// strictly between grid entries, and every family's validity region
	// in p is an interval, so validating the grid covers them too.
	for _, cfg := range opts.Configs {
		for _, p := range opts.PGrid {
			if p == 0 {
				continue // served by the no-resource shortcut, any family
			}
			cp := core.Params{P: p, Gamma: opts.Gamma, Depth: cfg.Depth, Forks: cfg.Forks, MaxLen: opts.MaxForkLen}
			if err := fam.Validate(cp); err != nil {
				return nil, fmt.Errorf("selfishmining: sweep point %v: %w", cp, err)
			}
		}
	}
	// The single-tree baseline accompanies the fork figure only — for the
	// singletree family it IS the curve. Its chain's shape depends only on
	// (l, f), so it compiles once per sweep, before any solve: an
	// unsupported depth fails up front.
	var tree *baseline.CompiledSingleTree
	if isFork {
		if tree, err = baseline.CompileSingleTree(opts.MaxForkLen, opts.TreeWidth, baseline.PublishThreatened); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, s.countCancel(cancelError(err, nil))
	}
	workers := par.Workers(opts.Workers)
	if s.cfg.MaxConcurrent > 0 && workers > s.cfg.MaxConcurrent {
		workers = s.cfg.MaxConcurrent
	}
	var progressMu sync.Mutex
	progress := func(format string, args ...any) {
		progressMu.Lock()
		defer progressMu.Unlock()
		opts.Progress(format, args...)
	}
	title := fmt.Sprintf("Expected relative revenue vs adversary resource (gamma=%g)", opts.Gamma)
	if !isFork {
		title = fmt.Sprintf("Expected relative revenue vs adversary resource (model=%s, gamma=%g)", fam.Name(), opts.Gamma)
	}
	fig := &results.Figure{
		Title:  title,
		XLabel: "p",
		YLabel: "ERRev",
	}

	if opts.Adaptive {
		// Adaptive sweeps discover their x-axis, so the attack curves run
		// first and the baselines follow on the refined grid.
		res, err := s.sweepAdaptive(ctx, opts, workers, progress)
		if err != nil {
			return nil, s.countCancel(err)
		}
		fig.X = res.X
		if err := s.addBaselines(ctx, fig, res.X, opts, workers, tree); err != nil {
			return nil, s.countCancel(err)
		}
		progress("baselines done (gamma=%g, %d points)", opts.Gamma, len(res.X))
		for ci, cfg := range opts.Configs {
			if err := fig.AddSeries(attackSeriesName(opts, cfg), res.Values[ci]); err != nil {
				return nil, err
			}
		}
		return fig, nil
	}

	fig.X = opts.PGrid
	if err := s.addBaselines(ctx, fig, opts.PGrid, opts, workers, tree); err != nil {
		return nil, s.countCancel(err)
	}
	progress("baselines done (gamma=%g, %d points)", opts.Gamma, len(opts.PGrid))

	series, err := s.sweepConfigs(ctx, opts, workers, progress)
	if err != nil {
		return nil, s.countCancel(err)
	}
	for ci, cfg := range opts.Configs {
		if err := fig.AddSeries(attackSeriesName(opts, cfg), series[ci]); err != nil {
			return nil, err
		}
	}
	return fig, nil
}

// addBaselines appends the honest series — and, given the fork family's
// compiled single-tree chain, the single-tree series — to fig, evaluated
// over xs. Single-tree points are independent exact chain analyses drawn
// by a pool of workers, each evaluating on its own scratch (the honest
// closed form is too cheap to bother). ctx is polled before every point;
// once it is done, workers stop drawing and the call returns a
// *CancelError. The phase's wall time and evaluated points are recorded
// once, when it ends.
func (s *Service) addBaselines(ctx context.Context, fig *results.Figure, xs []float64, opts SweepOptions, workers int, tree *baseline.CompiledSingleTree) error {
	defer obs.StartSpan(baselineSeconds).End()
	honest := make([]float64, len(xs))
	for i, p := range xs {
		v, err := baseline.HonestERRev(p)
		if err != nil {
			return err
		}
		honest[i] = v
	}
	if err := fig.AddSeries("honest", honest); err != nil {
		return err
	}
	if tree == nil {
		return nil
	}
	values := make([]float64, len(xs))
	errs := make([]error, len(xs))
	var cursor atomic.Int64
	var evaluated atomic.Uint64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(xs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := tree.NewScratch()
			var n uint64
			defer func() { evaluated.Add(n) }()
			for !failed.Load() {
				i := int(cursor.Add(1)) - 1
				if i >= len(xs) {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = cancelError(err, nil)
					failed.Store(true)
					return
				}
				values[i], errs[i] = tree.ERRev(xs[i], opts.Gamma, scratch)
				n++
				if errs[i] != nil {
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	baselinePoints.Add(evaluated.Load())
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return fig.AddSeries(fmt.Sprintf("single-tree(f=%d)", opts.TreeWidth), values)
}

// sweepBases resolves each config's (d, f, l) structure once, in parallel
// across configs (cache hits return immediately; misses compile). The
// bases' own mutable buffers stay idle while workers solve on clones,
// because a worker adopting a base would race its parameter mutation
// against other workers cloning from it.
func (s *Service) sweepBases(opts SweepOptions, workers int) ([]*core.Compiled, error) {
	bases := make([]*core.Compiled, len(opts.Configs))
	structErrs := make([]error, len(opts.Configs))
	par.For(len(opts.Configs), workers, func(_, from, to int) {
		for ci := from; ci < to; ci++ {
			cfg := opts.Configs[ci]
			bases[ci], structErrs[ci] = s.structure(structKey{sweepModel(opts), cfg.Depth, cfg.Forks, opts.MaxForkLen})
		}
	})
	for ci, err := range structErrs {
		if err != nil {
			return nil, fmt.Errorf("selfishmining: compiling d=%d f=%d: %w",
				opts.Configs[ci].Depth, opts.Configs[ci].Forks, err)
		}
	}
	return bases, nil
}

// gridTask is one (configuration, p) point a sweep pool must answer.
type gridTask struct {
	ci     int // index into opts.Configs
	wi     int // index into the batch's p slice (uniform sweeps: == pIndex)
	pIndex int // index into opts.PGrid, or -1 for adaptive refined points
	depth  int // bisection depth (0 for coarse and uniform points)
	p      float64
}

// solveTasks answers one batch of grid points on a worker pool: from the
// resume checkpoint when present, the p = 0 shortcut, the result cache,
// or a fresh (warm-started, coalesced) solve. onDone runs exactly once
// per task, serialized under one mutex, in parallel completion order; ctx
// stops workers from drawing new points and interrupts the one being
// solved at its next sweep boundary.
func (s *Service) solveTasks(ctx context.Context, opts SweepOptions, bases []*core.Compiled, workers int,
	resume map[sweepResumeKey]SweepPoint, tasks []gridTask, onDone func(ti int, errev float64, sweeps int)) error {
	if len(tasks) == 0 {
		return nil
	}
	if lanes := opts.batchLanes(bases); lanes >= 2 {
		return s.solveTasksBatched(ctx, opts, bases, workers, lanes, resume, tasks, onDone)
	}
	errs := make([]error, len(tasks))
	var doneMu sync.Mutex
	done := func(ti int, errev float64, sweeps int) {
		doneMu.Lock()
		defer doneMu.Unlock()
		onDone(ti, errev, sweeps)
	}
	poolSize := min(workers, len(tasks))
	var cursor atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < poolSize; w++ {
		// Split the worker budget: the pool takes the outer (point) level;
		// any leftover cores deepen the per-solve sweep parallelism, with
		// the remainder spread so no core idles. Neither split affects
		// results.
		innerWorkers := splitWorkers(workers, poolSize, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker solves on a clone of the drawn config's base:
			// shared immutable structure, private buffers. Only the current
			// config's clone is retained — tasks are drawn in config-major
			// order, so a worker re-clones at most once per config while
			// peak memory stays at one clone per worker even when the panel
			// includes multi-million-state configurations.
			cloneOf := -1
			var comp *core.Compiled
			for !failed.Load() {
				idx := int(cursor.Add(1)) - 1
				if idx >= len(tasks) {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[idx] = cancelError(err, nil)
					failed.Store(true)
					return
				}
				tk := tasks[idx]
				cfg := opts.Configs[tk.ci]
				if tk.p == 0 {
					done(idx, 0, 0) // no resource, no revenue; the p=0 MDP is degenerate
					continue
				}
				if pt, ok := resume[sweepResumeKey{cfg.Depth, cfg.Forks, math.Float64bits(tk.p)}]; ok {
					// Checkpointed by an earlier run of this same sweep:
					// the bitwise contract lets the recorded value stand in
					// for the solve verbatim.
					done(idx, pt.ERRev, pt.Sweeps)
					continue
				}
				if cloneOf != tk.ci {
					comp = bases[tk.ci].Clone()
					comp.SetWorkers(innerWorkers)
					cloneOf = tk.ci
				}
				res, err := s.sweepPoint(ctx, comp, cfg, tk.p, opts)
				if err != nil {
					errs[idx] = fmt.Errorf("selfishmining: sweeping d=%d f=%d: p=%g: %w", cfg.Depth, cfg.Forks, tk.p, err)
					failed.Store(true)
					return
				}
				done(idx, res.ERRev, res.Sweeps)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// splitWorkers apportions a worker budget over a pool: slot w of poolSize
// gets workers/poolSize cores, with the remainder spread over the first
// workers%poolSize slots — so 8 workers over 3 slots split 3/3/2 instead
// of stranding two cores on a uniform 2/2/2. Worker counts never change
// results, so any split is sound; this one just wastes nothing.
func splitWorkers(workers, poolSize, w int) int {
	base := workers / poolSize
	if w < workers%poolSize {
		base++
	}
	return max(base, 1)
}

// batchLanes resolves the sweep's effective lane count: explicit counts
// pass through; AutoBatchLanes, and 0 under the jacobi kernel, are sized
// from the panel's compiled structures; 0 under any other kernel keeps the
// solo per-point path (the batch replicates only jacobi's op sequence, and
// SweepContext rejects any nonzero count for the other kernels). A result
// below 2 means the solo path.
func (o *SweepOptions) batchLanes(bases []*core.Compiled) int {
	if o.BatchLanes > 0 {
		return o.BatchLanes
	}
	if kv, _ := kernel.ParseVariant(o.Kernel); kv != kernel.VariantJacobi {
		return 1
	}
	return autoBatchLanes(bases)
}

// autoBatchLanes sizes a lane group from the panel's largest structure:
// each lane adds a float32 probability per transition and two float64
// value-vector entries per state, and the group works best while that
// per-lane footprint times the lane count stays cache-resident. The 8 MiB
// budget approximates a shared L3 slice. Any budget allowing 8 or more
// lanes snaps to exactly 8 — the width the kernel's hand-specialized dense
// sweep is built for (see kernel.NewBatch), which holds all eight action
// accumulators in registers and is where batching's per-lane advantage
// over a solo sweep comes from. A budget that fits fewer than two lanes
// returns 1, the solo path: forcing two lanes there buys no speed and
// multiplies the sweep's value-vector memory.
func autoBatchLanes(bases []*core.Compiled) int {
	const budget = 8 << 20
	laneBytes := int64(1)
	for _, b := range bases {
		lb := b.NumTransitions()*4 + int64(b.NumStates())*16
		if lb > laneBytes {
			laneBytes = lb
		}
	}
	return int(min(max(budget/laneBytes, 1), 8))
}

// BatchLaneCount reports the lane count AutoBatchLanes resolves to for one
// attack structure — deterministic across machines, since it depends only
// on the structure's size and a fixed cache budget. Exported so tooling
// (cmd/bench) can stamp the effective group size into artifacts.
func BatchLaneCount(model string, cfg AttackConfig, maxLen int) (int, error) {
	if model == "" {
		model = families.DefaultName
	}
	// Chain parameters are placeholders; lane sizing reads only the
	// structure's state and transition counts.
	comp, err := families.Compile(model, core.Params{
		P: 0.1, Gamma: 0.5,
		Depth: cfg.Depth, Forks: cfg.Forks, MaxLen: maxLen,
	})
	if err != nil {
		return 0, err
	}
	return autoBatchLanes([]*core.Compiled{comp}), nil
}

// sweepPointKey is the result-cache key of one (configuration, p) sweep
// point — the same key sweepPoint builds, shared by the batched scheduler
// (batched and solo solves are bitwise identical, so sharing entries is
// sound).
func (s *Service) sweepPointKey(opts SweepOptions, cfg AttackConfig, p float64) resultKey {
	params := AttackParams{
		Model:     sweepModel(opts),
		Adversary: p, Switching: opts.Gamma,
		Depth: cfg.Depth, Forks: cfg.Forks, MaxForkLen: opts.MaxForkLen,
	}
	pointCfg := config{epsilon: opts.Epsilon, boundOnly: true, skipEval: true, kernel: opts.Kernel}
	return s.key(params, &pointCfg)
}

// solveTasksBatched is solveTasks' multi-lane twin: points answered by the
// p = 0 shortcut, the resume checkpoint or the result cache are emitted
// up front, and each configuration's remaining points are solved in lane
// groups — one batched bound-only analysis per group, streaming the shared
// structure once per sweep for all lanes (analysis.
// AnalyzeBatchCompiledContext). Configurations spread over a worker pool;
// within one, groups run sequentially and stride the pending points so
// group g+1's lanes sit one stride from group g's and warm-start from its
// freshly solved vectors. onDone keeps the solo contract — exactly once
// per task, serialized — and every emitted value is bitwise identical to
// the solo path's: batching changes scheduling, never results.
func (s *Service) solveTasksBatched(ctx context.Context, opts SweepOptions, bases []*core.Compiled, workers, lanes int,
	resume map[sweepResumeKey]SweepPoint, tasks []gridTask, onDone func(ti int, errev float64, sweeps int)) error {
	var doneMu sync.Mutex
	done := func(ti int, errev float64, sweeps int) {
		doneMu.Lock()
		defer doneMu.Unlock()
		onDone(ti, errev, sweeps)
	}
	// Pass 1: answer every point that needs no solve; the rest queue per
	// configuration, in task order (config-major, ascending p).
	pending := make([][]int, len(opts.Configs))
	for idx, tk := range tasks {
		if err := ctx.Err(); err != nil {
			return cancelError(err, nil)
		}
		cfg := opts.Configs[tk.ci]
		if tk.p == 0 {
			done(idx, 0, 0) // no resource, no revenue; the p=0 MDP is degenerate
			continue
		}
		if pt, ok := resume[sweepResumeKey{cfg.Depth, cfg.Forks, math.Float64bits(tk.p)}]; ok {
			done(idx, pt.ERRev, pt.Sweeps)
			continue
		}
		if a, ok := s.results.Get(s.sweepPointKey(opts, cfg, tk.p)); ok {
			s.sweepPoints.Add(1)
			done(idx, a.ERRev, a.Sweeps)
			continue
		}
		pending[tk.ci] = append(pending[tk.ci], idx)
	}
	work := make([]int, 0, len(pending))
	for ci := range pending {
		if len(pending[ci]) > 0 {
			work = append(work, ci)
		}
	}
	if len(work) == 0 {
		return nil
	}
	// Pass 2: a pool over configurations. The outer level stops at the
	// configuration (not the point, as in solveTasks): lane groups already
	// use the point-level parallelism budget, and a group must see its
	// predecessor's vectors to warm-start.
	poolSize := min(workers, len(work))
	errs := make([]error, len(work))
	var cursor atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < poolSize; w++ {
		innerWorkers := splitWorkers(workers, poolSize, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				wi := int(cursor.Add(1)) - 1
				if wi >= len(work) {
					return
				}
				ci := work[wi]
				if err := s.solveConfigBatched(ctx, opts, bases[ci], innerWorkers, lanes, tasks, pending[ci], done); err != nil {
					errs[wi] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// solveConfigBatched solves one configuration's pending points on one
// clone of its base structure, in contiguous lane groups of at most
// `lanes` points: group g takes the next `lanes` pending points in
// ascending p. Neighboring p values converge at similar speeds, so the
// lanes of a group finish their searches close together and the batch
// stays at full width — the dense specialized sweep — for almost the
// whole run; a spread-out group would leave its slowest lane running
// alone in a long thin tail. Each group seeds from the previous group's
// converged vectors (nearest p per lane, the batched analog of the warm
// cache's nearest-p rule), which adjoins it in p. A group that
// degenerates to one point takes the solo sweepPoint path, which also
// coalesces it with identical in-flight requests.
func (s *Service) solveConfigBatched(ctx context.Context, opts SweepOptions, base *core.Compiled,
	innerWorkers, lanes int, tasks []gridTask, idxs []int, done func(ti int, errev float64, sweeps int)) error {
	cfg := opts.Configs[tasks[idxs[0]].ci]
	comp := base.Clone()
	comp.SetWorkers(innerWorkers)
	groups := (len(idxs) + lanes - 1) / lanes
	var prevPs []float64
	var prevVals [][]float64
	for g := 0; g < groups; g++ {
		group := idxs[g*lanes : min((g+1)*lanes, len(idxs))]
		if len(group) == 1 {
			batchSoloPoints.Inc()
			tk := tasks[group[0]]
			res, err := s.sweepPoint(ctx, comp, cfg, tk.p, opts)
			if err != nil {
				return fmt.Errorf("selfishmining: sweeping d=%d f=%d: p=%g: %w", cfg.Depth, cfg.Forks, tk.p, err)
			}
			done(group[0], res.ERRev, res.Sweeps)
			continue
		}
		batchGroupsScheduled.Inc()
		batchGroupLanes.Add(uint64(len(group)))
		ps := make([]float64, len(group))
		seeds := make([][]float64, len(group))
		for i, idx := range group {
			ps[i] = tasks[idx].p
			seeds[i] = nearestSeed(prevPs, prevVals, ps[i])
		}
		as, vals, err := s.sweepBatch(ctx, comp, cfg, ps, seeds, opts, innerWorkers)
		if err != nil {
			return fmt.Errorf("selfishmining: sweeping d=%d f=%d (batch of %d): %w", cfg.Depth, cfg.Forks, len(group), err)
		}
		for i, idx := range group {
			done(idx, as[i].ERRev, as[i].Sweeps)
		}
		prevPs, prevVals = ps, vals
	}
	return nil
}

// nearestSeed picks the previous lane group's converged vector closest in
// p to the queried point. Seeds change sweep counts, never results (see
// the Service determinism notes), so a nil return — first group, or a
// previous lane without a vector — just means a colder start.
func nearestSeed(ps []float64, vals [][]float64, p float64) []float64 {
	best := -1
	for i := range ps {
		if vals[i] == nil {
			continue
		}
		if best < 0 || math.Abs(ps[i]-p) < math.Abs(ps[best]-p) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	return vals[best]
}

// sweepConfigs computes the attack curves of a uniform-grid panel with a
// worker pool over all (configuration, p) points. Completed points are
// streamed through opts.OnPoint (serialized) as they finish.
func (s *Service) sweepConfigs(ctx context.Context, opts SweepOptions, workers int, progress func(string, ...any)) ([][]float64, error) {
	bases, err := s.sweepBases(opts, workers)
	if err != nil {
		return nil, err
	}
	tasks := make([]gridTask, 0, len(opts.Configs)*len(opts.PGrid))
	for ci := range opts.Configs {
		for pi, p := range opts.PGrid {
			tasks = append(tasks, gridTask{ci: ci, wi: pi, pIndex: pi, p: p})
		}
	}
	out := make([][]float64, len(opts.Configs))
	for ci := range out {
		out[ci] = make([]float64, len(opts.PGrid))
	}
	resume := resumePoints(opts.Resume)
	err = s.solveTasks(ctx, opts, bases, workers, resume, tasks, func(ti int, errev float64, sweeps int) {
		tk := tasks[ti]
		cfg := opts.Configs[tk.ci]
		out[tk.ci][tk.pIndex] = errev
		if opts.OnPoint != nil {
			opts.OnPoint(SweepPoint{
				Config: cfg, Series: attackSeriesName(opts, cfg),
				PIndex: tk.pIndex, P: tk.p, Gamma: opts.Gamma,
				ERRev: errev, Sweeps: sweeps,
			})
		}
		if tk.p != 0 {
			progress("d=%d f=%d p=%.2f gamma=%g: ERRev=%.5f (%d sweeps)",
				cfg.Depth, cfg.Forks, tk.p, opts.Gamma, errev, sweeps)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sweepAdaptive computes the attack curves of an adaptive panel: the
// refinement engine decides which points exist, wave by wave, and each
// wave is solved over the same worker pool (and caches) uniform sweeps
// use. Refined midpoints warm-start from their freshly solved neighbors
// through the service's warm-start cache — the solved corners of a cell
// are exactly the nearest-p vectors when its midpoint solves.
//
// Emission is deterministic: within a wave, completed points are held
// back until every earlier task of the wave (config-major, ascending p)
// has finished, so the OnPoint stream — and any checkpoint built from a
// prefix of it — is reproducible point for point.
func (s *Service) sweepAdaptive(ctx context.Context, opts SweepOptions, workers int, progress func(string, ...any)) (*adaptive.Result, error) {
	bases, err := s.sweepBases(opts, workers)
	if err != nil {
		return nil, err
	}
	resume := resumePoints(opts.Resume)
	solve := func(ps []float64, depth int) ([][]float64, error) {
		tasks := make([]gridTask, 0, len(ps)*len(opts.Configs))
		for ci := range opts.Configs {
			for wi, p := range ps {
				pIndex := -1
				if depth == 0 {
					pIndex = wi // the coarse wave IS the requested grid
				}
				tasks = append(tasks, gridTask{ci: ci, wi: wi, pIndex: pIndex, depth: depth, p: p})
			}
		}
		vals := make([][]float64, len(opts.Configs))
		for ci := range vals {
			vals[ci] = make([]float64, len(ps))
		}
		pts := make([]SweepPoint, len(tasks))
		completed := make([]bool, len(tasks))
		frontier := 0
		err := s.solveTasks(ctx, opts, bases, workers, resume, tasks, func(ti int, errev float64, sweeps int) {
			tk := tasks[ti]
			cfg := opts.Configs[tk.ci]
			vals[tk.ci][tk.wi] = errev
			pts[ti] = SweepPoint{
				Config: cfg, Series: attackSeriesName(opts, cfg),
				PIndex: tk.pIndex, P: tk.p, Gamma: opts.Gamma, Depth: tk.depth,
				ERRev: errev, Sweeps: sweeps,
			}
			completed[ti] = true
			for frontier < len(tasks) && completed[frontier] {
				pt := pts[frontier]
				if opts.OnPoint != nil {
					opts.OnPoint(pt)
				}
				if pt.P != 0 {
					progress("d=%d f=%d p=%g gamma=%g depth=%d: ERRev=%.5f (%d sweeps)",
						pt.Config.Depth, pt.Config.Forks, pt.P, opts.Gamma, pt.Depth, pt.ERRev, pt.Sweeps)
				}
				frontier++
			}
		})
		if err != nil {
			return nil, err
		}
		return vals, nil
	}
	res, err := adaptive.Refine(adaptive.Options{
		Grid:      opts.PGrid,
		Configs:   len(opts.Configs),
		Tolerance: opts.Tolerance,
		MaxDepth:  opts.MaxDepth,
		MaxPoints: opts.MaxPoints,
		Force:     opts.Exhaustive,
	}, solve)
	if err != nil {
		return nil, err
	}
	if res.Truncated {
		progress("refinement budget exhausted after %d refined points (max %d)", res.Refined, opts.MaxPoints)
	}
	progress("adaptive refinement done: %d x-values (%d coarse + %d refined)",
		len(res.X), len(opts.PGrid), res.Refined)
	return res, nil
}

// sweepPoint answers one grid point: from the result cache when available,
// coalesced with an identical in-flight point otherwise, and solved on the
// calling worker's clone as the singleflight leader — seeded from the
// nearest solved p — when the point is genuinely new. A cancellation
// interrupts the solve at its next sweep boundary and stores nothing.
func (s *Service) sweepPoint(ctx context.Context, comp *core.Compiled, cfg AttackConfig, p float64, opts SweepOptions) (*Analysis, error) {
	s.sweepPoints.Add(1)
	params := AttackParams{
		Model:     sweepModel(opts),
		Adversary: p, Switching: opts.Gamma,
		Depth: cfg.Depth, Forks: cfg.Forks, MaxForkLen: opts.MaxForkLen,
	}
	pointCfg := config{epsilon: opts.Epsilon, boundOnly: true, skipEval: true, kernel: opts.Kernel}
	key := s.key(params, &pointCfg)
	for {
		if a, ok := s.results.Get(key); ok {
			return a, nil
		}
		a, err, shared := s.flight.DoContext(ctx, key, func() (*Analysis, error) {
			// The global solve limit covers sweep points too: a single sweep's
			// pool is already capped, but concurrent sweeps and analyzes share
			// this semaphore.
			if err := s.acquire(ctx); err != nil {
				return nil, cancelError(err, nil)
			}
			defer s.release()
			start := time.Now()
			if err := comp.SetChainParams(p, opts.Gamma); err != nil {
				return nil, err
			}
			sk := structKey{sweepModel(opts), cfg.Depth, cfg.Forks, opts.MaxForkLen}
			kv, _ := kernel.ParseVariant(opts.Kernel) // validated by SweepContext
			aOpts := analysis.Options{Epsilon: opts.Epsilon, SkipStrategyEval: true, SkipStrategy: true, Kernel: kv}
			if seed, ok := s.warmSeed(sk, opts.Gamma, p, comp.NumStates()); ok {
				aOpts.InitialValues = seed
			}
			s.solves.Add(1)
			res, err := analysis.AnalyzeCompiledContext(ctx, comp, aOpts)
			if err != nil {
				return nil, cancelError(err, res)
			}
			res.Duration = time.Since(start)
			s.warmPut(sk, opts.Gamma, p, comp)
			a, err := newAnalysis(params, params.core(), res, false, comp.NumStates())
			if err != nil {
				return nil, err
			}
			s.results.Add(key, a)
			return a, nil
		})
		if err != nil {
			// A point coalesced across CONCURRENT sweeps can inherit the
			// other sweep's cancellation; while this sweep's own context
			// is live, retry as a fresh leader (see the matching branch in
			// AnalyzeDetailedContext).
			if shared && isCtxErr(err) && ctx.Err() == nil {
				continue
			}
			return nil, cancelError(err, nil)
		}
		return a, nil
	}
}

// sweepBatch answers one lane group of a batched sweep: len(ps) same-
// configuration points solved in a single multi-lane bound-only analysis
// over comp's shared structure, occupying one MaxConcurrent slot for the
// whole group. Each lane's result is bitwise identical to the solo
// sweepPoint solve at that (p, γ), so the lanes populate the solo path's
// result-cache entries and warm-start neighborhoods. Unlike sweepPoint,
// lanes are not singleflight-coalesced: the batched scheduler filters
// cached points before grouping, and a concurrent identical sweep merely
// duplicates work, never diverges results.
//
// seeds[i], when non-nil, warm-starts lane i (the caller passes the
// previous group's vectors); other lanes fall back to the warm cache.
// Returns the per-lane analyses plus each lane's converged value vector
// for seeding the caller's next group.
func (s *Service) sweepBatch(ctx context.Context, comp *core.Compiled, cfg AttackConfig, ps []float64,
	seeds [][]float64, opts SweepOptions, workers int) ([]*Analysis, [][]float64, error) {
	s.sweepPoints.Add(uint64(len(ps)))
	if err := s.acquire(ctx); err != nil {
		return nil, nil, cancelError(err, nil)
	}
	defer s.release()
	sk := structKey{sweepModel(opts), cfg.Depth, cfg.Forks, opts.MaxForkLen}
	lanes := make([]analysis.BatchLane, len(ps))
	for i, p := range ps {
		lanes[i] = analysis.BatchLane{P: p, Gamma: opts.Gamma}
		if i < len(seeds) && seeds[i] != nil {
			lanes[i].InitialValues = seeds[i]
		} else if seed, ok := s.warmSeed(sk, opts.Gamma, p, comp.NumStates()); ok {
			lanes[i].InitialValues = seed
		}
	}
	// On hardware with the assembly dense sweep, pad a short group to the
	// dense width by duplicating its last lane: the full-width sweep costs
	// less than two generic per-lane passes, so burning padded lanes on
	// duplicate work is faster than running narrow. Padding never reaches
	// the results — duplicate lanes are sliced off below — and cannot
	// change them anyway (lanes never interact; see kernel.Batch).
	if kernel.DenseBatchAsm() && len(lanes) > 1 && len(lanes) < kernel.DenseBatchWidth {
		for len(lanes) < kernel.DenseBatchWidth {
			lanes = append(lanes, lanes[len(ps)-1])
		}
	}
	s.solves.Add(uint64(len(ps)))
	lrs, err := analysis.AnalyzeBatchCompiledContext(ctx, comp, lanes, analysis.Options{
		Epsilon: opts.Epsilon, SkipStrategyEval: true, SkipStrategy: true, Workers: workers,
	})
	if err != nil {
		return nil, nil, cancelError(err, nil)
	}
	out := make([]*Analysis, len(ps))
	vals := make([][]float64, len(ps))
	for i, lr := range lrs[:len(ps)] {
		vals[i] = lr.Values
		s.warmPutVec(sk, opts.Gamma, ps[i], comp.NumStates(), lr.Values)
		params := AttackParams{
			Model:     sweepModel(opts),
			Adversary: ps[i], Switching: opts.Gamma,
			Depth: cfg.Depth, Forks: cfg.Forks, MaxForkLen: opts.MaxForkLen,
		}
		a, err := newAnalysis(params, params.core(), &lr.Result, false, comp.NumStates())
		if err != nil {
			return nil, nil, err
		}
		s.results.Add(s.sweepPointKey(opts, cfg, ps[i]), a)
		out[i] = a
	}
	return out, vals, nil
}
