package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// opRecord is one operation of the timed window: a request, a panel or a
// job, from its client's send to the answer in hand.
type opRecord struct {
	client     int
	kind       string // "analyze" or "sweep"
	start, end time.Duration
	// serverMs is the server-side time the answer reports: duration_ms,
	// or finished_at minus submitted_at for a job (negative if none).
	serverMs float64
	err      error
	in, out  any
}

// opFunc performs the next operation of client k.
type opFunc func(ctx context.Context, c *client, k int) opRecord

// workload is one seeded traffic mix.
type workload struct {
	clients int
	// serveArgs are the serve flags beyond -addr; dir is a fresh
	// directory the run may hand serve.
	serveArgs func(dir string) []string
	// prime runs once per boot, after /readyz answers and before timing.
	prime func(ctx context.Context, c *client) error
	// ops returns the operation source, with input generators at their
	// start.
	ops func() opFunc
	// verify compares the answers with the library's, outside the timed
	// window: it sets err on each record that does not match, and returns
	// failed whole-window checks.
	verify func(ctx context.Context, recs []opRecord, before, after counters) []string
	// traced is the in-process run feeding the same inputs through each
	// layer's public calls for budget; it returns the tracing overhead in
	// percent.
	traced func(ctx context.Context, tr *tracer, dir string, budget time.Duration) (float64, error)
}

// measurement is the outcome of the untraced HTTP run.
type measurement struct {
	correct           bool
	attempted, failed int
	e2e, layers       map[string]metric
	p90               float64
	problems          []string
}

// measure boots serve setupRepeats times (timing each boot plus priming),
// runs the timed window on the last boot, then checks every answer.
func measure(ctx context.Context, cfg config, wl *workload, dir string) (*measurement, error) {
	c := newClient(wl.clients)
	var setups []float64
	var srv *serveProc
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	tSetup := time.Now()
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		var err error
		srv, err = startServe(cfg.serve, wl.serveArgs(filepath.Join(dir, fmt.Sprintf("boot-%d", i))))
		if err != nil {
			return nil, err
		}
		c.base = srv.base
		if err := srv.waitReady(ctx, c); err != nil {
			return nil, err
		}
		if err := wl.prime(ctx, c); err != nil {
			return nil, fmt.Errorf("priming: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	before, err := snapshot(ctx, c, srv)
	if err != nil {
		return nil, err
	}
	tWindow := time.Now()
	recs := window(ctx, c, wl.clients, time.Duration(cfg.seconds)*time.Second, wl.ops())
	after, err := snapshot(ctx, c, srv)
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	srv.stop()
	srv = nil

	m := &measurement{attempted: len(recs)}
	tVerify := time.Now()
	m.problems = wl.verify(ctx, recs, before, after)
	fmt.Fprintf(os.Stderr, "setup %.1fs (%d boots), window %.1fs, checks %.1fs\n",
		tWindow.Sub(tSetup).Seconds(), setupRepeats, tVerify.Sub(tWindow).Seconds(), time.Since(tVerify).Seconds())
	lat := make([]float64, len(recs))
	var overhead []float64
	perClient := make([]int, wl.clients)
	lastEnd := make([]time.Duration, wl.clients)
	var sweepOps, analyzeOps float64
	for i, r := range recs {
		lastEnd[r.client] = max(lastEnd[r.client], r.end)
		if r.err != nil {
			m.failed++
			lat[i] = math.Inf(1) // a failed operation misses every latency limit
			if len(m.problems) < 5 {
				m.problems = append(m.problems, r.err.Error())
			}
			continue
		}
		perClient[r.client]++
		ms := durMs(r.end - r.start)
		lat[i] = ms
		if r.serverMs >= 0 {
			overhead = append(overhead, 1000*(ms-r.serverMs))
		}
		if r.kind == "sweep" {
			sweepOps++
		} else {
			analyzeOps++
		}
	}
	m.correct = m.failed == 0 && len(m.problems) == 0
	// Each closed-loop client completes operations at its own rate: its
	// count over the time to its last answer. Summing the rates keeps a
	// slow operation still running when the window closes from skewing
	// the other client's figure.
	var throughput float64
	for k, n := range perClient {
		if lastEnd[k] > 0 {
			throughput += float64(n) / lastEnd[k].Seconds()
		}
	}
	p50, err := percentile(lat, 0.5)
	if err != nil {
		return nil, fmt.Errorf("latency over %d operations: %w", len(lat), err)
	}
	if p90, err := percentile(lat, 0.9); err == nil {
		m.p90 = p90
	}
	ok := analyzeOps + sweepOps
	m.e2e = map[string]metric{
		"setup_s":              {median(setups), "s"},
		"throughput_ops_s":     {throughput, "1/s"},
		"latency_p50_ms":       {p50, "ms"},
		"server_cpu_ms_per_op": {1000 * ratio(after.cpu-before.cpu, ok), "ms"},
		"server_peak_rss_mb":   {rss, "MiB"},
	}

	d := func(f func(counters) float64) float64 { return f(after) - f(before) }
	hits := d(func(c counters) float64 { return c.stats.Results.Hits })
	misses := d(func(c counters) float64 { return c.stats.Results.Misses })
	solves := d(func(c counters) float64 { return c.stats.Solves })
	sweepPoints := d(func(c counters) float64 { return c.stats.SweepPoints })
	warmHits := d(func(c counters) float64 { return c.stats.WarmHits })
	warmMisses := d(func(c counters) float64 { return c.stats.WarmMisses })
	prom := func(name string) float64 {
		return d(func(c counters) float64 { return c.prom.sum(name) })
	}
	m.layers = map[string]metric{
		"serve.overhead_us":        {median(overhead), "us"},
		"service.result_hit_ratio": {ratio(hits, hits+misses), "ratio"},
		"service.solves":           {ratio(solves, ok), "1/op"},
		"service.compiles":         {d(func(c counters) float64 { return c.stats.Compiles }), "count"},
		"service.coalesced":        {ratio(d(func(c counters) float64 { return c.stats.Coalesced }), ok), "1/op"},
		"service.warm_hit_ratio":   {ratio(warmHits, warmHits+warmMisses), "ratio"},
		"sweep.points":             {ratio(sweepPoints, sweepOps), "1/op"},
		"sweep.solves":             {ratio(max(solves-analyzeOps, 0), sweepOps), "1/op"},
		"sweep.refine_points":      {ratio(prom("sweep_refine_points_total"), sweepOps), "1/op"},
		"sweep.batched_lane_share": {ratio(prom("kernel_batch_lanes_total"), sweepPoints), "ratio"},
		"lease.ops":                {ratio(d(func(c counters) float64 { return c.stats.leaseOps() }), ok), "1/op"},
	}
	return m, nil
}

// minOps is the fewest operations a window completes: the median needs
// ten samples beyond it. When a slow system has not completed that many
// by the deadline, the clients carry on until it has.
const minOps = 2 * minBeyond

// window runs clients closed loops until dur has passed since the start
// and minOps operations have completed: each client sends its next
// operation only once the previous answer is in, and the operations in
// flight when time is up run to completion.
func window(ctx context.Context, c *client, clients int, dur time.Duration, op opFunc) []opRecord {
	start := time.Now()
	per := make([][]opRecord, clients)
	var done atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && (time.Since(start) < dur || done.Load() < minOps) {
				t := time.Now()
				r := op(ctx, c, k)
				r.client, r.start, r.end = k, t.Sub(start), time.Since(start)
				per[k] = append(per[k], r)
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	var all []opRecord
	for _, rs := range per {
		all = append(all, rs...)
	}
	return all
}
