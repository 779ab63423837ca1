package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// scatterStationary is the power iteration Stationary ran before it
// gathered over a transpose: y = Pᵀπ scattered row by row, skipping rows
// with π[r] == 0, then a separate damping, change and mass pass. It counts
// the skipped rows so the test can show it reached that branch.
func scatterStationary(p *CSR, opts StationaryOptions) ([]float64, int, error) {
	opts.defaults()
	n := p.Rows
	pi := make([]float64, n)
	next := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	skips := 0
	tau := opts.Damping
	for iter := 0; iter < opts.MaxIter; iter++ {
		for i := range next {
			next[i] = 0
		}
		for r := 0; r < p.Rows; r++ {
			xr := pi[r]
			if xr == 0 {
				skips++
				continue
			}
			for k := p.RowPtr[r]; k < p.RowPtr[r+1]; k++ {
				next[p.ColIdx[k]] += p.Val[k] * xr
			}
		}
		var diff, sum float64
		for i := range next {
			next[i] = (1-tau)*pi[i] + tau*next[i]
			diff += math.Abs(next[i] - pi[i])
			sum += next[i]
		}
		for i := range next {
			next[i] /= sum
		}
		pi, next = next, pi
		if diff < opts.Tol {
			return pi, skips, nil
		}
	}
	return nil, skips, ErrNoConvergence
}

// randomChainEntries draws a row-stochastic n-state chain as an entry list
// with explicit zeros and repeated (row, col) pairs. The first `sources`
// states receive no positive probability, so under Damping 1 their π is
// exactly zero from the first iteration on.
func randomChainEntries(rng *rand.Rand, n, sources int) []Entry {
	var entries []Entry
	for r := 0; r < n; r++ {
		cols := make([]int, 1+rng.Intn(4))
		ws := make([]float64, len(cols))
		var tot float64
		for i := range cols {
			cols[i] = sources + rng.Intn(n-sources)
			if i > 0 && rng.Intn(3) == 0 {
				cols[i] = cols[rng.Intn(i)] // a repeated (row, col) pair
			}
			ws[i] = rng.Float64()
			tot += ws[i]
		}
		for i, c := range cols {
			entries = append(entries, Entry{Row: r, Col: c, Val: ws[i] / tot})
		}
		entries = append(entries, Entry{Row: r, Col: rng.Intn(n), Val: 0})
	}
	rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	return entries
}

// TestStationaryMatchesScatterBitwise: Stationary's gather iteration
// returns the old scatter iteration's π bit for bit (or the same error) on
// random chains with zero entries, repeated entries — merged by NewCSR, or
// kept unmerged and unsorted within a row of a hand-built CSR — and states
// whose π is zero, under the default damping and under Damping 1. The
// iteration budgets are cut short so slowly mixing draws end in matching
// ErrNoConvergence.
func TestStationaryMatchesScatterBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	skips, compared, runs := 0, 0, 0
	check := func(name string, p *CSR, opts StationaryOptions) {
		t.Helper()
		runs++
		want, s, werr := scatterStationary(p, opts)
		got, err := Stationary(p, opts)
		if (err == nil) != (werr == nil) || !errors.Is(err, werr) {
			t.Fatalf("%s: Stationary error %v, scatter error %v", name, err, werr)
		}
		if err != nil {
			return
		}
		compared++
		skips += s
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: pi[%d] = %v, scatter %v", name, i, got[i], want[i])
			}
		}
	}
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(60)
		entries := randomChainEntries(rng, n, rng.Intn(n/2))
		merged, err := NewCSR(n, n, entries)
		if err != nil {
			t.Fatal(err)
		}
		raw := &CSR{Rows: n, Cols: n, RowPtr: make([]int64, n+1)}
		for r := 0; r < n; r++ {
			for _, e := range entries {
				if e.Row == r {
					raw.ColIdx = append(raw.ColIdx, int32(e.Col))
					raw.Val = append(raw.Val, e.Val)
				}
			}
			raw.RowPtr[r+1] = int64(len(raw.Val))
		}
		for _, opts := range []StationaryOptions{{MaxIter: 3000}, {Damping: 1, MaxIter: 300}} {
			check("merged", merged, opts)
			check("raw", raw, opts)
		}
	}
	if skips == 0 {
		t.Fatal("no converged run had a zero-π row; the skip branch went untested")
	}
	if compared < runs/4 {
		t.Fatalf("only %d of %d runs converged; too few bitwise comparisons", compared, runs)
	}
	t.Logf("%d of %d runs compared bitwise, %d zero-π rows skipped by the scatter", compared, runs, skips)
}

// TestStationaryTransposedDimensions: mismatched work vectors are rejected
// instead of indexing out of range.
func TestStationaryTransposedDimensions(t *testing.T) {
	p, err := NewCSR(2, 2, []Entry{{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 0, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StationaryTransposed(p.Transpose(), make([]float64, 2), make([]float64, 1), StationaryOptions{}); err == nil {
		t.Fatal("StationaryTransposed accepted a work vector of the wrong length")
	}
}
