package mathx

import "sort"

// BootstrapCI estimates a percentile-method confidence interval for an
// arbitrary statistic of xs by resampling with replacement. The
// randomness is injected as a uint64 source function so the caller
// controls determinism (internal/rng supplies it); mathx stays free of
// RNG policy.
//
// level is the two-sided confidence level, e.g. 0.95. resamples is the
// number of bootstrap replicates (1000 is typical). stat must be a pure
// function of its input.
func BootstrapCI(xs []float64, level float64, resamples int, next func() uint64, stat func([]float64) float64) (lo, hi float64, err error) {
	n := len(xs)
	if n == 0 {
		return 0, 0, ErrEmpty
	}
	level = Clamp(level, 0, 1)
	reps := make([]float64, resamples)
	buf := make([]float64, n)
	for r := 0; r < resamples; r++ {
		for i := range buf {
			buf[i] = xs[int(next()%uint64(n))]
		}
		reps[r] = stat(buf)
	}
	sort.Float64s(reps)
	alpha := (1 - level) / 2
	return QuantileSorted(reps, alpha), QuantileSorted(reps, 1-alpha), nil
}
