package linalg

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"

	"algossip/internal/gf"
)

// ErrSingular is returned by Inverse for non-invertible matrices.
var ErrSingular = errors.New("linalg: matrix is singular")

// Matrix is a dense rows x cols matrix over a finite field. RLNC decoding
// is inversion of the coefficient matrix; this type makes that structure
// explicit and testable (decode == multiply by the inverse). It is a test
// oracle only — TestDecodeIsInversion validates the incremental
// RankMatrix.Solve against it — so it lives in a _test file and the
// package does not export it.
type Matrix struct {
	f    gf.Field
	rows int
	cols int
	data []gf.Elem // row-major
}

// NewMatrix returns a zero rows x cols matrix over f.
func NewMatrix(f gf.Field, rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic("linalg: matrix dimensions must be positive")
	}
	return &Matrix{f: f, rows: rows, cols: cols, data: make([]gf.Elem, rows*cols)}
}

// Identity returns the n x n identity matrix over f.
func Identity(f gf.Field, n int) *Matrix {
	m := NewMatrix(f, n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// RandomMatrix returns a rows x cols matrix with uniform entries.
func RandomMatrix(f gf.Field, rows, cols int, rng *rand.Rand) *Matrix {
	m := NewMatrix(f, rows, cols)
	for i := range m.data {
		m.data[i] = gf.Rand(f, rng)
	}
	return m
}

// FromRows builds a matrix from row slices (copied).
func FromRows(f gf.Field, rows [][]gf.Elem) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("linalg: FromRows needs a non-empty row set")
	}
	m := NewMatrix(f, len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic("linalg: ragged rows")
		}
		copy(m.data[i*m.cols:], r)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns entry (i, j).
func (m *Matrix) At(i, j int) gf.Elem { return m.data[i*m.cols+j] }

// Set assigns entry (i, j).
func (m *Matrix) Set(i, j int, v gf.Elem) { m.data[i*m.cols+j] = v }

// Row returns row i; the slice aliases internal storage.
func (m *Matrix) Row(i int) []gf.Elem { return m.data[i*m.cols : (i+1)*m.cols] }

// Clone returns an independent copy.
func (m *Matrix) Clone() *Matrix {
	cp := NewMatrix(m.f, m.rows, m.cols)
	copy(cp.data, m.data)
	return cp
}

// Equal reports whether both matrices have identical shape and entries.
func (m *Matrix) Equal(other *Matrix) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	for i := range m.data {
		if m.data[i] != other.data[i] {
			return false
		}
	}
	return true
}

// Mul returns m · other. It panics when the inner dimensions disagree.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.cols != other.rows {
		panic(fmt.Sprintf("linalg: dimension mismatch %dx%d · %dx%d",
			m.rows, m.cols, other.rows, other.cols))
	}
	out := NewMatrix(m.f, m.rows, other.cols)
	for i := 0; i < m.rows; i++ {
		outRow := out.Row(i)
		for kk := 0; kk < m.cols; kk++ {
			c := m.At(i, kk)
			if c == 0 {
				continue
			}
			m.f.AXPY(outRow, other.Row(kk), c)
		}
	}
	return out
}

// MulVec returns m · v for a column vector v of length Cols.
func (m *Matrix) MulVec(v []gf.Elem) []gf.Elem {
	if len(v) != m.cols {
		panic("linalg: vector length mismatch")
	}
	out := make([]gf.Elem, m.rows)
	for i := 0; i < m.rows; i++ {
		for j, x := range m.Row(i) {
			out[i] = m.f.Add(out[i], m.f.Mul(x, v[j]))
		}
	}
	return out
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.f, m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Rank returns the rank via the incremental eliminator.
func (m *Matrix) Rank() int {
	rm := NewRankMatrix(m.f, m.cols, 0)
	for i := 0; i < m.rows; i++ {
		rm.AddOwned(slices.Clone(m.Row(i)), nil)
	}
	return rm.Rank()
}

// Inverse returns m⁻¹ by Gauss-Jordan elimination on [m | I]. It returns
// ErrSingular for non-square or rank-deficient matrices.
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, ErrSingular
	}
	n := m.rows
	f := m.f
	// Augmented working copy [A | I].
	work := make([][]gf.Elem, n)
	for i := 0; i < n; i++ {
		row := make([]gf.Elem, 2*n)
		copy(row, m.Row(i))
		row[n+i] = 1
		work[i] = row
	}
	for col := 0; col < n; col++ {
		// Find a pivot at or below the diagonal.
		pivot := -1
		for r := col; r < n; r++ {
			if work[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, ErrSingular
		}
		work[col], work[pivot] = work[pivot], work[col]
		if c := work[col][col]; c != 1 {
			f.Scale(work[col], f.Inv(c))
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			if c := work[r][col]; c != 0 {
				f.AXPY(work[r], work[col], f.Neg(c))
			}
		}
	}
	out := NewMatrix(f, n, n)
	for i := 0; i < n; i++ {
		copy(out.Row(i), work[i][n:])
	}
	return out, nil
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("%dx%d over %s\n", m.rows, m.cols, m.f.Name())
	for i := 0; i < m.rows; i++ {
		s += fmt.Sprintln(m.Row(i))
	}
	return s
}
