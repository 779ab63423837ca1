package selfishmining

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/results"
)

// TestSweepCancelStopsBaselines: a fork sweep canceled while its
// single-tree baseline is being evaluated returns the usual *CancelError,
// counts one cancellation, and stops evaluating baseline points — the
// sweep_baseline_points_total delta stays below the grid. A uniform grid
// runs its baselines before any attack solve, so the cancel lands after
// len/2 context polls; an adaptive grid runs them after refinement, so
// the cancel lands half the refined x-axis before the last poll of an
// uncanceled run.
func TestSweepCancelStopsBaselines(t *testing.T) {
	base := SweepOptions{
		Gamma:      0.5,
		PGrid:      results.Grid(0.01, 0.2, 0.01),
		Configs:    []AttackConfig{{Depth: 1, Forks: 1}},
		MaxForkLen: 4,
		TreeWidth:  5,
		Epsilon:    1e-3,
		Workers:    1, // serial polls make the cancel point exact
	}
	adaptive := base
	adaptive.Adaptive, adaptive.Tolerance, adaptive.MaxDepth = true, 1e-3, 2

	for _, tc := range []struct {
		name string
		opts SweepOptions
	}{{"uniform", base}, {"adaptive", adaptive}} {
		t.Run(tc.name, func(t *testing.T) {
			counter := &cancelAfterChecks{Context: context.Background(), n: math.MaxInt64}
			ref, err := SweepContext(counter, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			points := int64(len(ref.X))
			cancelAt := points / 2
			if tc.opts.Adaptive {
				cancelAt = counter.calls.Load() - points/2
			}
			svc := NewService(ServiceConfig{})
			before := baselinePoints.Value()
			_, err = svc.SweepContext(&cancelAfterChecks{Context: context.Background(), n: cancelAt}, tc.opts)
			evaluated := int64(baselinePoints.Value() - before)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("canceled sweep returned %v, want ErrCanceled", err)
			}
			var ce *CancelError
			if !errors.As(err, &ce) {
				t.Fatalf("canceled sweep error %T is not a *CancelError", err)
			}
			if n := svc.Stats().Canceled; n != 1 {
				t.Errorf("Canceled = %d after one canceled sweep, want 1", n)
			}
			if evaluated <= 0 || evaluated >= points {
				t.Fatalf("canceled sweep evaluated %d of %d baseline points, want some but not all", evaluated, points)
			}
			if !tc.opts.Adaptive && svc.Stats().Solves != 0 {
				t.Errorf("uniform sweep canceled in its baselines still ran %d attack solves", svc.Stats().Solves)
			}
			t.Logf("canceled at poll %d: %d of %d baseline points evaluated", cancelAt, evaluated, points)
		})
	}
}
