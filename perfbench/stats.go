package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer, the value is set by a handful of extreme samples
// and does not repeat from run to run.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by linear
// interpolation between order statistics, or an error when fewer than
// minBeyond samples lie above it.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	// The tolerance keeps n(1-q) = 10 from failing on rounding (100 × 0.1).
	if beyond := float64(n) * (1 - q); beyond < minBeyond-1e-9 {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d samples (%.1f beyond)",
			100*q, minBeyond, n, beyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo+1 >= n {
		return s[n-1], nil
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), nil
}

// median is the middle order statistic of xs (0 for no samples). It is
// used for per-layer figures, which carry no sample-count rule.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
