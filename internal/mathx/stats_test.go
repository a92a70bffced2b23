package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= tol
}

func TestSumKahan(t *testing.T) {
	// 0.1 added 1e6 times: naive summation drifts, Kahan should not.
	xs := make([]float64, 1_000_000)
	for i := range xs {
		xs[i] = 0.1
	}
	got := Sum(xs)
	if !almostEqual(got, 100000, 1e-6) {
		t.Fatalf("Sum = %v, want 100000 within 1e-6", got)
	}
}

func TestMeanVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almostEqual(m, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", m)
	}
	// population variance is 4; sample variance is 32/7.
	if v := Variance(xs); !almostEqual(v, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", v, 32.0/7.0)
	}
	if s := StdDev(xs); !almostEqual(s, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev = %v", s)
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Variance([]float64{3}) != 0 {
		t.Error("Variance of singleton != 0")
	}
	if Skewness([]float64{1, 2}) != 0 {
		t.Error("Skewness of 2 elements != 0")
	}
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Errorf("Quantile(nil) err = %v, want ErrEmpty", err)
	}
	lo, hi := MinMax(nil)
	if lo != 0 || hi != 0 {
		t.Error("MinMax(nil) != (0,0)")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 0})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = (%v,%v), want (-1,7)", lo, hi)
	}
}

func TestQuantileSortedInterpolation(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3.0, 20}, {0.25, 17.5},
		{-0.5, 10}, {1.5, 40},
	}
	for _, c := range cases {
		if got := QuantileSorted(xs, c.q); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("QuantileSorted(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatalf("Quantile mutated input: %v", xs)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		qa := math.Abs(math.Mod(a, 1))
		qb := math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		va, _ := Quantile(xs, qa)
		vb, _ := Quantile(xs, qb)
		return va <= vb+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCorrelationPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r := Correlation(xs, ys); !almostEqual(r, 1, 1e-12) {
		t.Errorf("Correlation = %v, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Correlation(xs, neg); !almostEqual(r, -1, 1e-12) {
		t.Errorf("Correlation = %v, want -1", r)
	}
	flat := []float64{3, 3, 3, 3, 3}
	if r := Correlation(xs, flat); r != 0 {
		t.Errorf("Correlation with zero-variance series = %v, want 0", r)
	}
}

func TestSkewnessSign(t *testing.T) {
	rightTail := []float64{1, 1, 1, 2, 2, 3, 10, 30}
	if s := Skewness(rightTail); s <= 0 {
		t.Errorf("Skewness of right-tailed data = %v, want > 0", s)
	}
	symmetric := []float64{-3, -2, -1, 0, 1, 2, 3}
	if s := Skewness(symmetric); !almostEqual(s, 0, 1e-12) {
		t.Errorf("Skewness of symmetric data = %v, want 0", s)
	}
}

func TestClampLerp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp broken")
	}
}

func TestCovariancePropertyBilinear(t *testing.T) {
	// Cov(a*x, y) == a * Cov(x, y) for finite inputs.
	f := func(seed uint8, a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.Abs(a) > 1e6 {
			return true
		}
		n := 16
		xs := make([]float64, n)
		ys := make([]float64, n)
		s := uint64(seed) + 1
		for i := 0; i < n; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			xs[i] = float64(s%1000) / 10
			s = s*6364136223846793005 + 1442695040888963407
			ys[i] = float64(s%1000) / 10
		}
		ax := make([]float64, n)
		for i := range xs {
			ax[i] = a * xs[i]
		}
		want := a * Covariance(xs, ys)
		got := Covariance(ax, ys)
		return almostEqual(got, want, 1e-6*(1+math.Abs(want)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
