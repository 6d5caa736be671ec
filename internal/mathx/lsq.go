// Package mathx provides the small numerical routines the reproduction
// needs: dense least-squares solving (for the FBR profiling method of §3)
// and the special functions behind Welch's t-test p-values (§7).
package mathx

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular reports a linear system without a unique solution.
var ErrSingular = errors.New("mathx: singular system")

// SolveLeastSquares returns x minimizing ||A·x − b||₂ for a dense
// row-major matrix A (rows × cols) via the normal equations
// (Aᵀ A) x = Aᵀ b solved with Gaussian elimination and partial pivoting.
// It requires rows ≥ cols and a full-rank A.
func SolveLeastSquares(a [][]float64, b []float64) ([]float64, error) {
	rows := len(a)
	if rows == 0 {
		return nil, errors.New("mathx: empty system")
	}
	cols := len(a[0])
	if cols == 0 || rows < cols {
		return nil, fmt.Errorf("mathx: need rows >= cols > 0, got %d×%d", rows, cols)
	}
	if len(b) != rows {
		return nil, fmt.Errorf("mathx: b has %d entries, want %d", len(b), rows)
	}
	for i, row := range a {
		if len(row) != cols {
			return nil, fmt.Errorf("mathx: row %d has %d entries, want %d", i, len(row), cols)
		}
	}

	// Normal equations: ata = AᵀA (cols×cols), atb = Aᵀb.
	ata := make([][]float64, cols)
	for i := range ata {
		ata[i] = make([]float64, cols)
	}
	atb := make([]float64, cols)
	for r := 0; r < rows; r++ {
		for i := 0; i < cols; i++ {
			atb[i] += float64(a[r][i] * b[r])
			for j := 0; j < cols; j++ {
				ata[i][j] += float64(a[r][i] * a[r][j])
			}
		}
	}
	return SolveLinear(ata, atb)
}

// SolveLinear solves the square system m·x = v in place copies via
// Gaussian elimination with partial pivoting.
func SolveLinear(m [][]float64, v []float64) ([]float64, error) {
	n := len(m)
	if n == 0 || len(v) != n {
		return nil, errors.New("mathx: dimension mismatch")
	}
	// Work on copies.
	a := make([][]float64, n)
	for i := range a {
		if len(m[i]) != n {
			return nil, fmt.Errorf("mathx: row %d has %d entries, want %d", i, len(m[i]), n)
		}
		a[i] = append([]float64(nil), m[i]...)
	}
	b := append([]float64(nil), v...)

	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return nil, ErrSingular
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= float64(f * a[col][c])
			}
			b[r] -= float64(f * b[col])
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < n; j++ {
			sum -= float64(a[i][j] * x[j])
		}
		x[i] = sum / a[i][i]
	}
	return x, nil
}
