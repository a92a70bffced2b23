// Package mathx provides the numerical kernels shared across the risk
// analytics pipeline: descriptive statistics, quantiles, the standard
// normal distribution, and Cholesky factorization for correlated
// sampling.
//
// Everything here is deterministic and allocation-conscious: the hot
// paths of the aggregate-analysis engines (internal/aggregate) and the
// DFA integrator (internal/dfa) call into this package millions of
// times per simulation.
package mathx

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by statistics that are undefined on empty input.
var ErrEmpty = errors.New("mathx: empty input")

// Sum returns the sum of xs using Kahan compensated summation, which
// keeps error bounded when accumulating millions of per-trial losses.
func Sum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (denominator n-1).
// It returns 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss, comp float64
	for _, x := range xs {
		d := x - m
		y := d*d - comp
		t := ss + y
		comp = (t - ss) - y
		ss = t
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (the R type-7 / Excel
// definition). xs need not be sorted; it is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, q), nil
}

// QuantileSorted returns the q-quantile of an ascending-sorted slice
// using linear interpolation (type-7). q outside [0,1] is clamped, and
// a NaN q gives NaN. It reads sorted[0] at q ≤ 0, and otherwise the two
// ranks QuantileRank names or, where it names none, sorted[n-1].
// It panics on empty input: callers on the hot path are expected to
// have validated once up front.
func QuantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		panic("mathx: QuantileSorted on empty slice")
	}
	if q != q {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	i, frac, ok := QuantileRank(n, q)
	if !ok {
		return sorted[n-1]
	}
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

// QuantileRank says where QuantileSorted reads the q-quantile of n
// sorted elements: between ranks i and i+1, with weight frac on the
// upper one, when ok; at an endpoint when not, which is when q is not
// inside (0, 1) (NaN included) or the upper rank would be past the last.
func QuantileRank(n int, q float64) (i int, frac float64, ok bool) {
	if !(q > 0 && q < 1) {
		return 0, 0, false
	}
	h := q * float64(n-1)
	if i = int(h); i+1 >= n {
		return 0, 0, false
	}
	return i, h - float64(i), true
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
