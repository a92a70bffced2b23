package mathx

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix
// is not (numerically) positive definite.
var ErrNotPositiveDefinite = errors.New("mathx: matrix not positive definite")

// Matrix is a dense row-major square matrix. It is the minimal linear
// algebra needed for Gaussian-copula correlation in the DFA stage; a
// full BLAS is deliberately out of scope.
type Matrix struct {
	N    int
	Data []float64 // len N*N, row-major
}

// NewMatrix returns an N×N zero matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{N: n, Data: make([]float64, n*n)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.N+j] = v }

// CorrelationMatrix builds an N×N matrix with 1 on the diagonal and
// rho everywhere else (a one-factor equicorrelation structure, the
// standard first-order model for dependency between risk classes).
// It returns an error if rho is outside the positive-definite range
// (-1/(n-1), 1).
func CorrelationMatrix(n int, rho float64) (*Matrix, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mathx: CorrelationMatrix size %d", n)
	}
	if n > 1 && (rho <= -1/float64(n-1) || rho >= 1) {
		return nil, fmt.Errorf("mathx: equicorrelation rho=%g not positive definite for n=%d", rho, n)
	}
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				m.Set(i, j, 1)
			} else {
				m.Set(i, j, rho)
			}
		}
	}
	return m, nil
}

// Cholesky computes the lower-triangular factor L with A = L·Lᵀ.
// A must be symmetric positive definite; the strictly upper triangle
// of A is ignored. The returned matrix has zeros above the diagonal.
func Cholesky(a *Matrix) (*Matrix, error) {
	n := a.N
	l := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= float64(l.At(i, k) * l.At(j, k))
			}
			if i == j {
				if sum <= 0 {
					return nil, ErrNotPositiveDefinite
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}

// CholeskyJittered is Cholesky with diagonal jitter fallback: if A is
// not positive definite (e.g. an empirical correlation matrix estimated
// from few samples), progressively larger multiples of the identity are
// added until factorization succeeds. The jitter used is returned so
// callers can report how far the matrix was from PD.
func CholeskyJittered(a *Matrix, maxTries int) (l *Matrix, jitter float64, err error) {
	l, err = Cholesky(a)
	if err == nil {
		return l, 0, nil
	}
	jitter = 1e-10
	for try := 0; try < maxTries; try++ {
		aj := NewMatrix(a.N)
		copy(aj.Data, a.Data)
		for i := 0; i < a.N; i++ {
			aj.Set(i, i, aj.At(i, i)+jitter)
		}
		if l, err = Cholesky(aj); err == nil {
			return l, jitter, nil
		}
		jitter *= 10
	}
	return nil, jitter, ErrNotPositiveDefinite
}

// LowerMulVec computes y = L·x exploiting lower-triangular structure,
// touching only j <= i. This is the per-sample hot path when drawing
// correlated normals in the DFA simulator.
func (m *Matrix) LowerMulVec(x, y []float64) {
	for i := 0; i < m.N; i++ {
		var s float64
		row := m.Data[i*m.N : i*m.N+i+1]
		for j, v := range row {
			s += float64(v * x[j])
		}
		y[i] = s
	}
}
