package selfishmining

import (
	"repro/internal/cache"
	"repro/selfishmining/obs"
)

// Batched-sweep scheduling instruments, on the shared default registry:
// how the lane scheduler carved pending grid points into multi-lane
// groups versus solo fallbacks.
var (
	batchGroupsScheduled = obs.Default().Counter("sweep_batch_groups_total",
		"Multi-lane groups scheduled by batched sweeps.")
	batchGroupLanes = obs.Default().Counter("sweep_batch_group_lanes_total",
		"Grid points scheduled into multi-lane batch groups.")
	batchSoloPoints = obs.Default().Counter("sweep_batch_solo_points_total",
		"Single-point groups that fell back to the solo per-point path.")
)

// Baseline-phase instruments, recorded once per sweep when its honest and
// single-tree series are done (or abandoned), never per point.
var (
	baselineSeconds = obs.Default().Histogram("sweep_baseline_seconds",
		"Wall time of one sweep's baseline phase (honest and single-tree series).", obs.DefBuckets())
	baselinePoints = obs.Default().Counter("sweep_baseline_points_total",
		"Single-tree baseline points evaluated by sweeps.")
)

// RegisterMetrics wires this service's accounting into a metrics registry
// as scrape-time collector series: the three LRU caches (results,
// structures, warm-start vectors), the singleflight coalescing counters,
// and the solve/cancel tallies of ServiceStats. Values are snapshot from
// Stats() at each exposition — the analyze/sweep hot path is not touched —
// so register a Service on at most one registry (typically the per-server
// registry cmd/serve exposes on /metrics, merged with obs.Default()).
func (s *Service) RegisterMetrics(r *obs.Registry) {
	cache.RegisterLRU(r, "results", s.results)
	cache.RegisterLRU(r, "structures", s.structures)
	cache.RegisterLRU(r, "warm", s.warm)

	solves := r.Counter("service_solves_total",
		"Analyses actually executed by the service (cache misses that solved).")
	compiles := r.Counter("service_compiles_total",
		"Family structure compiles executed by the service.")
	coalesced := r.Counter("service_coalesced_total",
		"Requests answered by another request's in-flight solve.")
	warmHits := r.Counter("service_warm_hits_total",
		"Bound-only solves seeded from a cached warm-start vector.")
	warmMisses := r.Counter("service_warm_misses_total",
		"Bound-only solves with no usable warm-start vector.")
	warmPuts := r.Counter("service_warm_puts_total",
		"Warm-start vectors retained after a solve.")
	sweepPoints := r.Counter("service_sweep_points_total",
		"Sweep grid points served (cached or solved).")
	canceled := r.Counter("service_canceled_total",
		"Requests ended by explicit context cancellation.")
	deadline := r.Counter("service_deadline_total",
		"Requests ended by a context deadline.")
	inflight := r.Gauge("service_inflight_solves",
		"Distinct analyses currently executing.")
	r.OnCollect(func() {
		st := s.Stats()
		solves.Store(st.Solves)
		compiles.Store(st.Compiles)
		coalesced.Store(st.Coalesced)
		warmHits.Store(st.WarmHits)
		warmMisses.Store(st.WarmMisses)
		warmPuts.Store(st.WarmPuts)
		sweepPoints.Store(st.SweepPoints)
		canceled.Store(st.Canceled)
		deadline.Store(st.DeadlineExceeded)
		inflight.Set(float64(st.InFlight))
	})
}
