package linalg

import (
	"fmt"
	"math"
	"sort"
)

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	Rows, Cols int
	RowPtr     []int64   // len Rows+1
	ColIdx     []int32   // len nnz
	Val        []float64 // len nnz
}

// Entry is a single (row, col, value) triple used to build sparse matrices.
type Entry struct {
	Row, Col int
	Val      float64
}

// NewCSR builds a CSR matrix from unordered entries. Duplicate (row, col)
// pairs are summed.
func NewCSR(rows, cols int, entries []Entry) (*CSR, error) {
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			return nil, fmt.Errorf("linalg: entry (%d,%d) out of bounds for %dx%d matrix", e.Row, e.Col, rows, cols)
		}
	}
	sorted := make([]Entry, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &CSR{
		Rows:   rows,
		Cols:   cols,
		RowPtr: make([]int64, rows+1),
	}
	for i := 0; i < len(sorted); {
		j := i + 1
		v := sorted[i].Val
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			v += sorted[j].Val
			j++
		}
		m.ColIdx = append(m.ColIdx, int32(sorted[i].Col))
		m.Val = append(m.Val, v)
		m.RowPtr[sorted[i].Row+1]++
		i = j
	}
	for r := 0; r < rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m, nil
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// MulVec computes y = M x. y must have length Rows, x length Cols.
func (m *CSR) MulVec(x, y []float64) error {
	if len(x) != m.Cols || len(y) != m.Rows {
		return fmt.Errorf("linalg: MulVec dimension mismatch: matrix %dx%d, x %d, y %d", m.Rows, m.Cols, len(x), len(y))
	}
	for r := 0; r < m.Rows; r++ {
		var s float64
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		y[r] = s
	}
	return nil
}

// Transpose returns Mᵀ in CSR form. Row c of Mᵀ lists column c of M in
// M's storage order — ascending row, then position within the row — so a
// dot product over row c of Mᵀ adds the same terms, in the same order, as
// a row-by-row scatter of Mᵀx into y[c].
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		Rows:   m.Cols,
		Cols:   m.Rows,
		RowPtr: make([]int64, m.Cols+1),
		ColIdx: make([]int32, len(m.Val)),
		Val:    make([]float64, len(m.Val)),
	}
	for _, c := range m.ColIdx {
		t.RowPtr[c+1]++
	}
	for c := 0; c < m.Cols; c++ {
		t.RowPtr[c+1] += t.RowPtr[c]
	}
	next := make([]int64, m.Cols)
	copy(next, t.RowPtr[:m.Cols])
	for r := 0; r < m.Rows; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			c := m.ColIdx[k]
			j := next[c]
			next[c]++
			t.ColIdx[j] = int32(r)
			t.Val[j] = m.Val[k]
		}
	}
	return t
}

// RowSums returns the vector of row sums; useful to validate stochasticity.
func (m *CSR) RowSums() []float64 {
	sums := make([]float64, m.Rows)
	for r := 0; r < m.Rows; r++ {
		var s float64
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			s += m.Val[k]
		}
		sums[r] = s
	}
	return sums
}

// IsStochastic reports whether every row sums to 1 within tol and all
// entries are non-negative.
func (m *CSR) IsStochastic(tol float64) bool {
	for _, v := range m.Val {
		if v < -tol {
			return false
		}
	}
	for _, s := range m.RowSums() {
		if math.Abs(s-1) > tol {
			return false
		}
	}
	return true
}

// ToDense expands the matrix; intended for tests and small systems only.
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			d.Add(r, int(m.ColIdx[k]), m.Val[k])
		}
	}
	return d
}
