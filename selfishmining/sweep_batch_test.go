package selfishmining

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/families"
	"repro/internal/results"
)

// TestSplitWorkers pins the pool-split arithmetic: the whole worker budget
// is handed out whenever it is at least the pool size, with the remainder
// spread over the leading slots (the PR-8 fix for the 8-workers/3-tasks
// split, which used to strand two cores on a uniform 2/2/2).
func TestSplitWorkers(t *testing.T) {
	cases := []struct {
		workers, poolSize int
		want              []int
	}{
		{workers: 8, poolSize: 3, want: []int{3, 3, 2}},
		{workers: 8, poolSize: 4, want: []int{2, 2, 2, 2}},
		{workers: 7, poolSize: 2, want: []int{4, 3}},
		{workers: 5, poolSize: 5, want: []int{1, 1, 1, 1, 1}},
		{workers: 3, poolSize: 5, want: []int{1, 1, 1, 1, 1}}, // floor at 1
		{workers: 1, poolSize: 1, want: []int{1}},
	}
	for _, c := range cases {
		total := 0
		for w := 0; w < c.poolSize; w++ {
			got := splitWorkers(c.workers, c.poolSize, w)
			if got != c.want[w] {
				t.Errorf("splitWorkers(%d, %d, %d) = %d, want %d", c.workers, c.poolSize, w, got, c.want[w])
			}
			total += got
		}
		if c.workers >= c.poolSize && total != c.workers {
			t.Errorf("splitWorkers(%d, %d, ·) hands out %d workers, want the full budget", c.workers, c.poolSize, total)
		}
	}
}

func figuresBitwiseEqual(t *testing.T, tag string, got, want *results.Figure) {
	t.Helper()
	if len(got.X) != len(want.X) {
		t.Fatalf("%s: %d x-values, want %d", tag, len(got.X), len(want.X))
	}
	for i := range want.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			t.Fatalf("%s: X[%d] = %.17g, want %.17g", tag, i, got.X[i], want.X[i])
		}
	}
	if len(got.Series) != len(want.Series) {
		t.Fatalf("%s: %d series, want %d", tag, len(got.Series), len(want.Series))
	}
	bySeries := make(map[string][]float64, len(want.Series))
	for _, s := range want.Series {
		bySeries[s.Name] = s.Values
	}
	for _, s := range got.Series {
		ref, ok := bySeries[s.Name]
		if !ok {
			t.Errorf("%s: unexpected series %q", tag, s.Name)
			continue
		}
		for i := range ref {
			if math.Float64bits(s.Values[i]) != math.Float64bits(ref[i]) {
				t.Errorf("%s: series %q point %d: %.17g, want %.17g", tag, s.Name, i, s.Values[i], ref[i])
			}
		}
	}
}

// TestBatchedSweepMatchesSoloFigure is the sweep-level pin of the batching
// contract: for every registered family, the figure computed with lane
// batching (the unset default, auto-sized and forced counts, including a
// count larger than the grid) schedules lane groups and is bitwise
// identical to the forced solo per-point sweep's, and the OnPoint stream
// still delivers every attack point exactly once with the figure's exact
// values.
func TestBatchedSweepMatchesSoloFigure(t *testing.T) {
	grid := []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3}
	for _, name := range families.Names() {
		opts := SweepOptions{Model: name, Gamma: 0.5, PGrid: grid, Epsilon: 1e-3}
		if name == families.DefaultName {
			opts.Configs = []AttackConfig{{Depth: 1, Forks: 1}, {Depth: 2, Forks: 1}, {Depth: 2, Forks: 2}}
		}
		solo := opts
		solo.BatchLanes = 1
		want, err := NewService(ServiceConfig{}).SweepContext(context.Background(), solo)
		if err != nil {
			t.Fatalf("%s: solo sweep: %v", name, err)
		}
		for _, lanes := range []int{0, AutoBatchLanes, 3, len(grid) + 5} {
			bOpts := opts
			bOpts.BatchLanes = lanes
			type pointKey struct {
				series string
				pbits  uint64
			}
			var mu sync.Mutex
			streamed := make(map[pointKey]SweepPoint)
			bOpts.OnPoint = func(pt SweepPoint) {
				mu.Lock()
				defer mu.Unlock()
				k := pointKey{pt.Series, math.Float64bits(pt.P)}
				if _, dup := streamed[k]; dup {
					t.Errorf("%s lanes=%d: point %v streamed twice", name, lanes, k)
				}
				streamed[k] = pt
			}
			groups := batchGroupsScheduled.Value()
			got, err := NewService(ServiceConfig{}).SweepContext(context.Background(), bOpts)
			if err != nil {
				t.Fatalf("%s lanes=%d: batched sweep: %v", name, lanes, err)
			}
			if batchGroupsScheduled.Value() == groups {
				t.Errorf("%s lanes=%d: sweep scheduled no lane groups", name, lanes)
			}
			figuresBitwiseEqual(t, name, got, want)
			nAttack := len(bOpts.Configs)
			if nAttack == 0 {
				nAttack = 1 // non-fork families default to one config
			}
			if len(streamed) != nAttack*len(grid) {
				t.Errorf("%s lanes=%d: %d streamed points, want %d", name, lanes, len(streamed), nAttack*len(grid))
			}
			for _, s := range got.Series {
				for i, v := range s.Values {
					pt, ok := streamed[pointKey{s.Name, math.Float64bits(got.X[i])}]
					if !ok {
						continue // baseline series are not streamed
					}
					if math.Float64bits(pt.ERRev) != math.Float64bits(v) {
						t.Errorf("%s lanes=%d: streamed %q p=%g ERRev %.17g != figure %.17g",
							name, lanes, s.Name, got.X[i], pt.ERRev, v)
					}
				}
			}
		}
	}
}

// TestBatchedSweepServesResultCache: a repeat batched sweep on the same
// service must answer every point from the result cache the first run
// populated — no fresh solves — and still produce the identical figure.
func TestBatchedSweepServesResultCache(t *testing.T) {
	svc := NewService(ServiceConfig{})
	opts := SweepOptions{
		Gamma: 0.5, PGrid: []float64{0, 0.1, 0.2, 0.3},
		Configs: []AttackConfig{{Depth: 2, Forks: 1}}, MaxForkLen: 3,
		Epsilon: 1e-3, BatchLanes: AutoBatchLanes,
	}
	first, err := svc.SweepContext(context.Background(), opts)
	if err != nil {
		t.Fatalf("first batched sweep: %v", err)
	}
	solves := svc.Stats().Solves
	second, err := svc.SweepContext(context.Background(), opts)
	if err != nil {
		t.Fatalf("second batched sweep: %v", err)
	}
	if got := svc.Stats().Solves; got != solves {
		t.Errorf("repeat batched sweep ran %d fresh solves, want 0", got-solves)
	}
	figuresBitwiseEqual(t, "cached repeat", second, first)
}

// TestBatchedSweepResume: a checkpoint collected from a batched sweep's
// OnPoint stream must let a second batched run skip those points and still
// assemble the bitwise-identical figure (the batched scheduler keeps the
// per-point resume semantics).
func TestBatchedSweepResume(t *testing.T) {
	opts := SweepOptions{
		Gamma: 0.5, PGrid: []float64{0, 0.1, 0.2, 0.3},
		Configs: []AttackConfig{{Depth: 2, Forks: 1}}, MaxForkLen: 3,
		Epsilon: 1e-3, BatchLanes: 2,
	}
	var ck SweepCheckpoint
	full := opts
	full.OnPoint = func(pt SweepPoint) { ck.Points = append(ck.Points, pt) }
	want, err := NewService(ServiceConfig{}).SweepContext(context.Background(), full)
	if err != nil {
		t.Fatalf("checkpoint sweep: %v", err)
	}
	// Resume from a strict prefix so the second run has genuine work left.
	resumed := opts
	resumed.Resume = &SweepCheckpoint{Points: ck.Points[:len(ck.Points)/2]}
	got, err := NewService(ServiceConfig{}).SweepContext(context.Background(), resumed)
	if err != nil {
		t.Fatalf("resumed batched sweep: %v", err)
	}
	figuresBitwiseEqual(t, "resumed", got, want)
}

// TestGoldenAdaptiveBatchSweepBitwise reruns the adaptive golden sweep
// through the batched scheduler: the refined x-axis and every series value
// must match the pinned pre-batching constants bit for bit.
func TestGoldenAdaptiveBatchSweepBitwise(t *testing.T) {
	fig, err := Sweep(SweepOptions{
		Gamma:      0.5,
		PGrid:      []float64{0, 0.1, 0.2, 0.3},
		Configs:    []AttackConfig{{Depth: 2, Forks: 1}},
		MaxForkLen: 3,
		TreeWidth:  3,
		Epsilon:    1e-3,
		Adaptive:   true,
		Tolerance:  1e-3,
		MaxDepth:   2,
		BatchLanes: AutoBatchLanes,
	})
	if err != nil {
		t.Fatalf("adaptive batched Sweep: %v", err)
	}
	if len(fig.X) != len(goldenAdaptiveX) {
		t.Fatalf("got %d x-values, golden %d: %v", len(fig.X), len(goldenAdaptiveX), fig.X)
	}
	for i, want := range goldenAdaptiveX {
		if math.Float64bits(fig.X[i]) != math.Float64bits(want) {
			t.Errorf("X[%d]: %.17g, golden %.17g", i, fig.X[i], want)
		}
	}
	for _, s := range fig.Series {
		want, ok := goldenAdaptiveSeries[s.Name]
		if !ok {
			t.Errorf("unexpected series %q", s.Name)
			continue
		}
		for i := range want {
			if math.Float64bits(s.Values[i]) != math.Float64bits(want[i]) {
				t.Errorf("series %q point %d: %.17g, golden %.17g", s.Name, i, s.Values[i], want[i])
			}
		}
	}
}

// TestBatchedSweepValidation covers the BatchLanes option surface.
func TestBatchedSweepValidation(t *testing.T) {
	base := SweepOptions{
		Gamma: 0.5, PGrid: []float64{0, 0.1},
		Configs: []AttackConfig{{Depth: 1, Forks: 1}}, MaxForkLen: 3, Epsilon: 1e-3,
	}
	bad := base
	bad.BatchLanes = -2
	if _, err := Sweep(bad); err == nil {
		t.Error("sweep accepted BatchLanes = -2")
	}
	gs := base
	gs.BatchLanes = 4
	gs.Kernel = "gs"
	if _, err := Sweep(gs); err == nil {
		t.Error("batched sweep accepted a non-jacobi kernel")
	}
	solo := base
	solo.BatchLanes = 1 // explicit solo: valid, forces the per-point path
	if _, err := Sweep(solo); err != nil {
		t.Errorf("BatchLanes = 1: %v", err)
	}
	gsDefault := base
	gsDefault.Kernel = "gs" // unset lanes: the solo path, not an error
	if _, err := Sweep(gsDefault); err != nil {
		t.Errorf("gs kernel with BatchLanes unset: %v", err)
	}
}

// TestAutoBatchLanes pins the cache-budget lane sizing: small structures
// snap to the dense 8-lane width, mid-sized ones get what fits the budget,
// and a structure too large for two lanes resolves to the solo path
// instead of a forced 2-lane group.
func TestAutoBatchLanes(t *testing.T) {
	cases := []struct {
		cfg    AttackConfig
		maxLen int
		want   int
	}{
		{AttackConfig{Depth: 1, Forks: 1}, 3, 8},
		{AttackConfig{Depth: 2, Forks: 2}, 5, 8}, // cmd/bench's batch cell
		{AttackConfig{Depth: 2, Forks: 2}, 7, 5},
		{AttackConfig{Depth: 3, Forks: 2}, 3, 3},
		{AttackConfig{Depth: 3, Forks: 2}, 4, 1}, // 187,500 states
	}
	for _, c := range cases {
		got, err := BatchLaneCount("", c.cfg, c.maxLen)
		if err != nil {
			t.Fatalf("%+v l=%d: %v", c.cfg, c.maxLen, err)
		}
		if got != c.want {
			t.Errorf("BatchLaneCount(%+v, l=%d) = %d, want %d", c.cfg, c.maxLen, got, c.want)
		}
	}
}

// TestBatchLanesResolution pins how SweepOptions.BatchLanes resolves: a
// zero value batches auto-sized groups under the jacobi kernel only, and
// explicit counts pass through unchanged.
func TestBatchLanesResolution(t *testing.T) {
	small, err := families.Compile(families.DefaultName, core.Params{P: 0.1, Gamma: 0.5, Depth: 1, Forks: 1, MaxLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	bases := []*core.Compiled{small}
	auto := autoBatchLanes(bases)
	cases := []struct {
		kernel string
		lanes  int
		want   int
	}{
		{"", 0, auto},
		{"jacobi", 0, auto},
		{"gs", 0, 1},
		{"sor", 0, 1},
		{"", AutoBatchLanes, auto},
		{"", 1, 1},
		{"", 3, 3},
	}
	for _, c := range cases {
		opts := SweepOptions{Kernel: c.kernel, BatchLanes: c.lanes}
		if got := opts.batchLanes(bases); got != c.want {
			t.Errorf("kernel %q BatchLanes %d resolves to %d lanes, want %d", c.kernel, c.lanes, got, c.want)
		}
	}
}
