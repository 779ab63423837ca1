package main

import (
	"math/rand/v2"

	"repro/internal/results"
	"repro/selfishmining"
)

// Workload names, as passed to --workload.
const (
	wlAnalyzeCold = "analyze-cold"
	wlAnalyzeHot  = "analyze-hot"
	wlSweepPanel  = "sweep-panel"
	wlJobsLeased  = "jobs-leased"
)

var workloads = []string{wlAnalyzeCold, wlAnalyzeHot, wlSweepPanel, wlJobsLeased}

// Random streams, one per purpose, so adding draws to one workload never
// shifts the inputs of another.
const (
	streamCold uint64 = iota + 1
	streamHot
	streamZipf
	streamPanel
	streamJobAnalyze
	streamJobSweep
)

// hotPoints is K, the number of distinct analyses analyze-hot primes and
// then repeats; zipfS skews the repeats towards a few popular points.
const (
	hotPoints = 48
	zipfS     = 1.1
)

// analyzeInput is the wire body of POST /v1/analyze and of an analyze
// job's spec. Everything else keeps the server default: a full analysis
// (bisection, strategy and its exact evaluation) at ε = 1e-4.
type analyzeInput struct {
	Model string  `json:"model,omitempty"`
	P     float64 `json:"p"`
	Gamma float64 `json:"gamma"`
	D     int     `json:"d"`
	F     int     `json:"f"`
	L     int     `json:"l"`
}

func (in analyzeInput) params() selfishmining.AttackParams {
	return selfishmining.AttackParams{
		Model: in.Model, Adversary: in.P, Switching: in.Gamma,
		Depth: in.D, Forks: in.F, MaxForkLen: in.L,
	}
}

// coldShapes is one cycle of the analyze mix. The d=2 f=2 fork anchor
// appears twice so that the three tiny fork shapes fill 3/7 of the
// requests: the median then falls inside the nakamoto band instead of on
// the gap between the tiny and the large shapes, where it would jump
// from run to run.
var coldShapes = []analyzeInput{
	{D: 1, F: 1, L: 4}, {D: 1, F: 2, L: 4}, {D: 2, F: 1, L: 4},
	{D: 2, F: 2, L: 4}, {D: 2, F: 2, L: 4},
	{Model: "nakamoto", D: 1, F: 1, L: 20},
	{Model: "singletree", D: 1, F: 5, L: 4},
}

// analyzeGen yields distinct analyses: each cycle visits every shape of
// coldShapes once in a seeded order, with a fresh seeded p and one of
// gammaSet seeded γ values. Sharing γ does not change the measured work
// (full analyses always solve cold and every (p, γ) is new to the result
// cache), but it lets the bound-only reference analyses of the checks
// warm-start from each other, which keeps the checks short.
type analyzeGen struct {
	r      *rand.Rand
	perm   []int
	gammas []float64
	seen   map[analyzeInput]bool
}

const gammaSet = 4

func newAnalyzeGen(seed int64, stream uint64) *analyzeGen {
	r := newRand(seed, stream)
	g := &analyzeGen{r: r, seen: map[analyzeInput]bool{}}
	for range gammaSet {
		g.gammas = append(g.gammas, r.Float64())
	}
	return g
}

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

func (g *analyzeGen) next() analyzeInput {
	if len(g.perm) == 0 {
		g.perm = g.r.Perm(len(coldShapes))
	}
	in := coldShapes[g.perm[0]]
	g.perm = g.perm[1:]
	for {
		in.P = 0.1 + 0.25*g.r.Float64()
		in.Gamma = g.gammas[g.r.IntN(gammaSet)]
		if !g.seen[in] {
			g.seen[in] = true
			return in
		}
	}
}

// hotInputs returns analyze-hot's K primed points and a generator of the
// indices its timed phase requests. Point i has shape coldShapes[i mod 7]
// whatever the seed: the Zipf ranks then always fall on the same shapes,
// and only (p, γ) vary with the seed.
func hotInputs(seed int64) ([]analyzeInput, func() int) {
	r := newRand(seed, streamHot)
	pts := make([]analyzeInput, hotPoints)
	for i := range pts {
		pts[i] = coldShapes[i%len(coldShapes)]
		pts[i].P, pts[i].Gamma = 0.1+0.25*r.Float64(), r.Float64()
	}
	z := rand.NewZipf(newRand(seed, streamZipf), zipfS, 1, hotPoints-1)
	return pts, func() int { return int(z.Uint64()) }
}

// sweepConfig is one (d, f) attack curve on the wire.
type sweepConfig struct {
	D int `json:"d"`
	F int `json:"f"`
}

// panelInput is the wire body of POST /v1/sweep: one Figure-2 panel over
// p = 0, 0.01, ..., 0.3 for the fork configurations 1x1, 2x1 and 2x2.
type panelInput struct {
	Gamma    float64       `json:"gamma"`
	PMax     float64       `json:"pmax"`
	PStep    float64       `json:"pstep"`
	Configs  []sweepConfig `json:"configs"`
	L        int           `json:"l"`
	Adaptive bool          `json:"adaptive,omitempty"`
}

var panelConfigs = []sweepConfig{{1, 1}, {2, 1}, {2, 2}}

// sweepOptions is the library form of the panel, as cmd/serve builds it.
func (in panelInput) sweepOptions() selfishmining.SweepOptions {
	return selfishmining.SweepOptions{
		Gamma:      in.Gamma,
		PGrid:      results.Grid(0, in.PMax, in.PStep),
		Configs:    attackConfigs(in.Configs),
		MaxForkLen: in.L,
		Adaptive:   in.Adaptive,
	}
}

func attackConfigs(cs []sweepConfig) []selfishmining.AttackConfig {
	out := make([]selfishmining.AttackConfig, len(cs))
	for i, c := range cs {
		out[i] = selfishmining.AttackConfig{Depth: c.D, Forks: c.F}
	}
	return out
}

// rotation yields the sequence frac(u0 + i·φ) for a seeded u0: the
// values are distinct and cover [0, 1) evenly at every length, so the
// cost of a run's inputs, which depends on where they fall, varies far
// less from seed to seed than with independent draws.
type rotation struct{ u float64 }

const goldenFrac = 0.6180339887498949

func newRotation(r *rand.Rand) *rotation { return &rotation{u: r.Float64()} }

func (s *rotation) next() float64 {
	v := s.u
	s.u += goldenFrac
	if s.u >= 1 {
		s.u--
	}
	return v
}

// panelGen yields panels with distinct seeded γ. Every third panel is
// adaptive: an adaptive panel costs about twice a uniform one, and with
// one in three the median stays inside the uniform band.
type panelGen struct {
	gamma *rotation
	i     int
}

func newPanelGen(seed int64) *panelGen {
	return &panelGen{gamma: newRotation(newRand(seed, streamPanel))}
}

func (g *panelGen) next() panelInput {
	in := panelInput{Gamma: g.gamma.next(), PMax: 0.3, PStep: 0.01, Configs: panelConfigs, L: 4, Adaptive: g.i%3 == 1}
	g.i++
	return in
}

// jobInput is the wire body of POST /v1/jobs.
type jobInput struct {
	Kind    string        `json:"kind"`
	Analyze *analyzeInput `json:"analyze,omitempty"`
	Sweep   *sweepJobSpec `json:"sweep,omitempty"`
}

// sweepJobSpec is a small uniform sweep job: fork 1x1 and 2x1 over
// p = 0, 0.02, ..., 0.3.
type sweepJobSpec struct {
	Gamma   float64       `json:"gamma"`
	PGrid   []float64     `json:"p_grid"`
	Configs []sweepConfig `json:"configs"`
	L       int           `json:"l"`
}

func (s sweepJobSpec) sweepOptions() selfishmining.SweepOptions {
	return selfishmining.SweepOptions{
		Gamma: s.Gamma, PGrid: s.PGrid, Configs: attackConfigs(s.Configs), MaxForkLen: s.L,
	}
}

// jobGen yields one client's job stream: client 0 submits fork d=3 f=2
// l=4 analyze jobs (187,500 states) at distinct seeded p in [0.2, 0.35]
// and one seeded γ per run (as analyzeGen shares γ, for the checks' sake),
// client 1 small sweep jobs at distinct seeded γ, so one large analysis
// and one sweep are in flight at any time.
type jobGen struct {
	client int
	gamma  float64
	values *rotation
}

func newJobGen(seed int64, client int) *jobGen {
	stream := streamJobAnalyze
	if client == 1 {
		stream = streamJobSweep
	}
	r := newRand(seed, stream)
	return &jobGen{client: client, gamma: r.Float64(), values: newRotation(r)}
}

func (g *jobGen) next() jobInput {
	if g.client == 0 {
		return jobInput{Kind: "analyze", Analyze: &analyzeInput{P: 0.2 + 0.15*g.values.next(), Gamma: g.gamma, D: 3, F: 2, L: 4}}
	}
	return jobInput{Kind: "sweep", Sweep: smallSweep(g.values.next())}
}

// smallSweep is the small uniform sweep job.
func smallSweep(gamma float64) *sweepJobSpec {
	return &sweepJobSpec{Gamma: gamma, PGrid: results.Grid(0, 0.3, 0.02), Configs: []sweepConfig{{1, 1}, {2, 1}}, L: 4}
}
