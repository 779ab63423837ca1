package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConvergence is returned when an iterative method fails to reach the
// requested tolerance within its iteration budget.
var ErrNoConvergence = errors.New("linalg: iteration limit reached before convergence")

// StationaryOptions configures the stationary-distribution power iteration.
type StationaryOptions struct {
	Tol     float64 // L1 stopping tolerance; default 1e-12
	MaxIter int     // default 200000
	Damping float64 // self-loop mixing in (0,1] to break periodicity; default 0.5
}

func (o *StationaryOptions) defaults() {
	if o.Tol <= 0 {
		o.Tol = 1e-12
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 200000
	}
	if o.Damping <= 0 || o.Damping > 1 {
		o.Damping = 0.5
	}
}

// Stationary computes the stationary distribution π of an irreducible
// row-stochastic matrix P via damped power iteration on πᵀ = πᵀP.
// The damping (π ← (1−τ)π + τ πP) leaves the fixed point unchanged while
// guaranteeing aperiodicity. It validates P, transposes it, and runs
// StationaryTransposed over freshly allocated work vectors.
func Stationary(p *CSR, opts StationaryOptions) ([]float64, error) {
	if p.Rows != p.Cols {
		return nil, fmt.Errorf("linalg: Stationary needs a square matrix, got %dx%d", p.Rows, p.Cols)
	}
	if !p.IsStochastic(1e-9) {
		return nil, errors.New("linalg: Stationary requires a row-stochastic matrix")
	}
	return StationaryTransposed(p.Transpose(), make([]float64, p.Rows), make([]float64, p.Rows), opts)
}

// StationaryTransposed is Stationary's power iteration for a caller that
// holds pt, the transpose (as built by CSR.Transpose) of a square
// row-stochastic matrix it has already validated, and owns the work
// vectors pi and next, each of length pt.Rows. It neither validates nor
// allocates, so a caller evaluating many chains of one pattern reuses
// everything. The returned π aliases pi or next.
//
// Each iteration gathers (πᵀP)[c] as the dot product of row c of pt with
// π, fused with the damping, the L1 change and the mass sum. Row c of pt
// holds column c of P in P's row order, so the gather adds the terms of a
// row-by-row scatter in the same order; a row with π[r] == 0, which a
// scatter skips, adds an exact +0 here. π is therefore bitwise the
// scatter iteration's.
func StationaryTransposed(pt *CSR, pi, next []float64, opts StationaryOptions) ([]float64, error) {
	n := pt.Rows
	if pt.Cols != n || len(pi) != n || len(next) != n {
		return nil, fmt.Errorf("linalg: StationaryTransposed dimension mismatch: matrix %dx%d, pi %d, next %d", pt.Rows, pt.Cols, len(pi), len(next))
	}
	opts.defaults()
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	tau := opts.Damping
	rowPtr := pt.RowPtr[:n+1]
	for iter := 0; iter < opts.MaxIter; iter++ {
		var diff, sum float64
		for c := range next {
			lo, hi := rowPtr[c], rowPtr[c+1]
			cols, vals := pt.ColIdx[lo:hi], pt.Val[lo:hi]
			var s float64
			for k, a := range vals {
				s += a * pi[cols[k]]
			}
			v := (1-tau)*pi[c] + tau*s
			next[c] = v
			diff += math.Abs(v - pi[c])
			sum += v
		}
		// Renormalize to guard against drift.
		for i := range next {
			next[i] /= sum
		}
		pi, next = next, pi
		if diff < opts.Tol {
			return pi, nil
		}
	}
	return nil, ErrNoConvergence
}

// AbsorbingCycle solves the expected accumulated reward until absorption for
// a transient Markov chain: h = r + Q h where Q is the transient-to-transient
// transition matrix (substochastic) and r the expected one-step reward per
// transient state. Returns h (dense solve; intended for small chains).
func AbsorbingCycle(q *CSR, r []float64) ([]float64, error) {
	if q.Rows != q.Cols {
		return nil, fmt.Errorf("linalg: AbsorbingCycle needs a square matrix, got %dx%d", q.Rows, q.Cols)
	}
	if len(r) != q.Rows {
		return nil, fmt.Errorf("linalg: AbsorbingCycle reward length %d != %d states", len(r), q.Rows)
	}
	n := q.Rows
	// Build I - Q densely.
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	for row := 0; row < n; row++ {
		for k := q.RowPtr[row]; k < q.RowPtr[row+1]; k++ {
			a.Add(row, int(q.ColIdx[k]), -q.Val[k])
		}
	}
	return SolveDense(a, r)
}

// GainBias solves the average-reward evaluation equations for an ergodic
// unichain Markov chain with transition matrix P and per-state expected
// reward r:
//
//	g + h(s) = r(s) + Σ_s' P(s,s') h(s'),   h(ref) = 0.
//
// It returns the gain g and bias vector h using a dense linear solve
// (intended for small chains; large chains should use iterative evaluation
// in package solve).
func GainBias(p *CSR, r []float64, ref int) (float64, []float64, error) {
	if p.Rows != p.Cols {
		return 0, nil, fmt.Errorf("linalg: GainBias needs a square matrix, got %dx%d", p.Rows, p.Cols)
	}
	n := p.Rows
	if len(r) != n {
		return 0, nil, fmt.Errorf("linalg: GainBias reward length %d != %d states", len(r), n)
	}
	if ref < 0 || ref >= n {
		return 0, nil, fmt.Errorf("linalg: GainBias reference state %d out of range [0,%d)", ref, n)
	}
	// Unknowns: [g, h_0, ..., h_{n-1}] with h_ref pinned to 0, so n+1
	// unknowns and n+1 equations (n evaluation equations + the pin).
	m := NewDense(n+1, n+1)
	b := make([]float64, n+1)
	for s := 0; s < n; s++ {
		m.Set(s, 0, 1)   // g
		m.Add(s, s+1, 1) // h(s)
		for k := p.RowPtr[s]; k < p.RowPtr[s+1]; k++ {
			m.Add(s, int(p.ColIdx[k])+1, -p.Val[k])
		}
		b[s] = r[s]
	}
	m.Set(n, ref+1, 1) // h(ref) = 0
	x, err := SolveDense(m, b)
	if err != nil {
		return 0, nil, err
	}
	return x[0], x[1 : n+1], nil
}
