package linalg

import (
	"math"
	"testing"
)

func TestNewCSRAndMulVec(t *testing.T) {
	// [1 2 0; 0 0 3]
	m, err := NewCSR(2, 3, []Entry{
		{Row: 0, Col: 0, Val: 1},
		{Row: 0, Col: 1, Val: 2},
		{Row: 1, Col: 2, Val: 3},
	})
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", m.NNZ())
	}
	y := make([]float64, 2)
	if err := m.MulVec([]float64{1, 1, 1}, y); err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	if y[0] != 3 || y[1] != 3 {
		t.Errorf("MulVec = %v, want [3 3]", y)
	}
}

func TestNewCSRSumsDuplicates(t *testing.T) {
	m, err := NewCSR(1, 1, []Entry{
		{Row: 0, Col: 0, Val: 0.25},
		{Row: 0, Col: 0, Val: 0.75},
	})
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	if m.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1 (duplicates summed)", m.NNZ())
	}
	if m.Val[0] != 1 {
		t.Errorf("summed value = %v, want 1", m.Val[0])
	}
}

func TestNewCSROutOfBounds(t *testing.T) {
	if _, err := NewCSR(2, 2, []Entry{{Row: 2, Col: 0, Val: 1}}); err == nil {
		t.Fatal("expected out-of-bounds error, got nil")
	}
	if _, err := NewCSR(2, 2, []Entry{{Row: 0, Col: -1, Val: 1}}); err == nil {
		t.Fatal("expected out-of-bounds error for negative col, got nil")
	}
}

func TestTranspose(t *testing.T) {
	// [0.5 0.5; 1 0]ᵀ x for x = [1, 2] => [0.5+2, 0.5]
	m, err := NewCSR(2, 2, []Entry{
		{Row: 0, Col: 0, Val: 0.5},
		{Row: 0, Col: 1, Val: 0.5},
		{Row: 1, Col: 0, Val: 1},
	})
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	mt := m.Transpose()
	if mt.Rows != 2 || mt.Cols != 2 || mt.NNZ() != 3 {
		t.Fatalf("Transpose shape %dx%d with %d entries, want 2x2 with 3", mt.Rows, mt.Cols, mt.NNZ())
	}
	y := make([]float64, 2)
	if err := mt.MulVec([]float64{1, 2}, y); err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	if y[0] != 2.5 || y[1] != 0.5 {
		t.Errorf("Mᵀx = %v, want [2.5 0.5]", y)
	}
	// Row 0 of Mᵀ is column 0 of M in row order: (0, 0.5) then (1, 1).
	if mt.ColIdx[0] != 0 || mt.ColIdx[1] != 1 || mt.Val[0] != 0.5 || mt.Val[1] != 1 {
		t.Errorf("Mᵀ row 0 = cols %v vals %v, want [0 1] [0.5 1]", mt.ColIdx[:2], mt.Val[:2])
	}
}

func TestIsStochastic(t *testing.T) {
	ok, err := NewCSR(2, 2, []Entry{
		{Row: 0, Col: 0, Val: 0.3}, {Row: 0, Col: 1, Val: 0.7},
		{Row: 1, Col: 1, Val: 1},
	})
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	if !ok.IsStochastic(1e-12) {
		t.Error("expected stochastic matrix to be recognized")
	}
	bad, err := NewCSR(1, 2, []Entry{{Row: 0, Col: 0, Val: 0.3}})
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	if bad.IsStochastic(1e-12) {
		t.Error("substochastic row accepted as stochastic")
	}
}

func TestStationaryTwoState(t *testing.T) {
	// P = [0.9 0.1; 0.5 0.5]; stationary pi = (5/6, 1/6).
	p, err := NewCSR(2, 2, []Entry{
		{Row: 0, Col: 0, Val: 0.9}, {Row: 0, Col: 1, Val: 0.1},
		{Row: 1, Col: 0, Val: 0.5}, {Row: 1, Col: 1, Val: 0.5},
	})
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	pi, err := Stationary(p, StationaryOptions{})
	if err != nil {
		t.Fatalf("Stationary: %v", err)
	}
	if !almostEq(pi[0], 5.0/6, 1e-9) || !almostEq(pi[1], 1.0/6, 1e-9) {
		t.Errorf("pi = %v, want [5/6 1/6]", pi)
	}
}

func TestStationaryPeriodicChain(t *testing.T) {
	// Two-state flip-flop is periodic; damping must still find pi = (1/2, 1/2).
	p, err := NewCSR(2, 2, []Entry{
		{Row: 0, Col: 1, Val: 1},
		{Row: 1, Col: 0, Val: 1},
	})
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	pi, err := Stationary(p, StationaryOptions{})
	if err != nil {
		t.Fatalf("Stationary: %v", err)
	}
	if !almostEq(pi[0], 0.5, 1e-9) || !almostEq(pi[1], 0.5, 1e-9) {
		t.Errorf("pi = %v, want [0.5 0.5]", pi)
	}
}

func TestStationaryRejectsNonStochastic(t *testing.T) {
	p, err := NewCSR(1, 1, []Entry{{Row: 0, Col: 0, Val: 0.5}})
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	if _, err := Stationary(p, StationaryOptions{}); err == nil {
		t.Fatal("expected error for non-stochastic matrix, got nil")
	}
}

func TestAbsorbingCycle(t *testing.T) {
	// Single transient state looping with prob 0.5, reward 1 per step until
	// absorption: h = 1 + 0.5 h => h = 2.
	q, err := NewCSR(1, 1, []Entry{{Row: 0, Col: 0, Val: 0.5}})
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	h, err := AbsorbingCycle(q, []float64{1})
	if err != nil {
		t.Fatalf("AbsorbingCycle: %v", err)
	}
	if !almostEq(h[0], 2, 1e-12) {
		t.Errorf("h = %v, want 2", h[0])
	}
}

func TestGainBiasTwoState(t *testing.T) {
	// P = [0 1; 1 0], r = [1, 0]: gain = 0.5.
	p, err := NewCSR(2, 2, []Entry{
		{Row: 0, Col: 1, Val: 1},
		{Row: 1, Col: 0, Val: 1},
	})
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	g, h, err := GainBias(p, []float64{1, 0}, 0)
	if err != nil {
		t.Fatalf("GainBias: %v", err)
	}
	if !almostEq(g, 0.5, 1e-12) {
		t.Errorf("gain = %v, want 0.5", g)
	}
	if h[0] != 0 {
		t.Errorf("bias at ref = %v, want 0", h[0])
	}
	// Check the evaluation equation g + h0 = r0 + h1.
	if !almostEq(g+h[0], 1+h[1], 1e-12) {
		t.Errorf("evaluation equation violated: %v != %v", g+h[0], 1+h[1])
	}
}

func TestGainBiasSelfLoop(t *testing.T) {
	p, err := NewCSR(1, 1, []Entry{{Row: 0, Col: 0, Val: 1}})
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	g, _, err := GainBias(p, []float64{0.37}, 0)
	if err != nil {
		t.Fatalf("GainBias: %v", err)
	}
	if !almostEq(g, 0.37, 1e-12) {
		t.Errorf("gain = %v, want 0.37", g)
	}
}

func TestRowSums(t *testing.T) {
	m, err := NewCSR(2, 2, []Entry{
		{Row: 0, Col: 0, Val: 0.25}, {Row: 0, Col: 1, Val: 0.5},
	})
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	sums := m.RowSums()
	if math.Abs(sums[0]-0.75) > 1e-12 || sums[1] != 0 {
		t.Errorf("RowSums = %v, want [0.75 0]", sums)
	}
}

func TestToDense(t *testing.T) {
	m, err := NewCSR(2, 2, []Entry{{Row: 1, Col: 0, Val: 4}})
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	d := m.ToDense()
	if d.At(1, 0) != 4 || d.At(0, 0) != 0 {
		t.Errorf("ToDense mismatch: %v", d.Data)
	}
}
