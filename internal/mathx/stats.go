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

import "math"

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

// MeanStdDev returns the arithmetic mean of xs (as Mean) and the
// unbiased sample standard deviation (denominator n-1) about it, from
// one compensated pass for the mean and one for the squared
// deviations. The deviation is 0 when len(xs) < 2.
func MeanStdDev(xs []float64) (mean, sd float64) {
	mean = Mean(xs)
	n := len(xs)
	if n < 2 {
		return mean, 0
	}
	var ss, comp float64
	for _, x := range xs {
		d := x - mean
		y := float64(d*d) - comp
		t := ss + y
		comp = (t - ss) - y
		ss = t
	}
	return mean, math.Sqrt(ss / float64(n-1))
}

// QuantileSorted returns the q-quantile of n values in ascending order,
// read through at(rank), using linear interpolation between order
// statistics (the R type-7 / Excel definition). q outside [0,1] is
// clamped, and a NaN q gives NaN. It reads at(0) at q ≤ 0, and
// otherwise the two ranks QuantileRank names or, where it names none,
// at(n-1). A sorted slice s is read as QuantileSorted(len(s), q,
// func(i int) float64 { return s[i] }); metrics reads a column's order
// statistics by selection instead. It panics when n is not positive:
// callers on the hot path are expected to have validated once up front.
func QuantileSorted(n int, q float64, at func(rank int) float64) float64 {
	if n <= 0 {
		panic("mathx: QuantileSorted of no values")
	}
	if q != q {
		return math.NaN()
	}
	if q <= 0 {
		return at(0)
	}
	i, frac, ok := QuantileRank(n, q)
	if !ok {
		return at(n - 1)
	}
	lo := at(i)
	return lo + float64(frac*(at(i+1)-lo))
}

// QuantileRank says where QuantileSorted reads the q-quantile of n
// sorted elements: between ranks i and i+1, with weight frac on the
// upper one, when ok; at an endpoint when not, which is when q is not
// inside (0, 1) (NaN included) or the upper rank would be past the last.
func QuantileRank(n int, q float64) (i int, frac float64, ok bool) {
	if !(q > 0 && q < 1) {
		return 0, 0, false
	}
	h := float64(q * float64(n-1))
	if i = int(h); i+1 >= n {
		return 0, 0, false
	}
	return i, h - float64(i), true
}

// OrderBits is the order-preserving bit pattern of a number that is not
// NaN: the sign bit flipped for a positive one, every bit for a negative
// one, so that the patterns compare as unsigned integers the way the
// numbers compare as floats (−Inf lowest, +Inf highest). Adding +0 first
// folds −0 onto +0: the two are equal and must tie. It has no branch: a
// column of mixed signs would mispredict one on half its values. A NaN
// gets a pattern too, above +Inf's or below −Inf's by its sign bit; no
// caller orders one by it (stage 3 refuses them, and the EP curves' key
// puts them first).
func OrderBits(x float64) uint64 {
	bits := math.Float64bits(x + 0)
	return bits ^ (uint64(int64(bits)>>63) | 1<<63)
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
