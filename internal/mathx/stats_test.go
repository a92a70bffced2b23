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
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Errorf("Quantile(nil) err = %v, want ErrEmpty", err)
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

func TestClampLerp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp broken")
	}
}

// A NaN level has no rank: QuantileRank names none and QuantileSorted
// returns NaN instead of indexing at int(NaN).
func TestQuantileSortedNaNLevel(t *testing.T) {
	for _, xs := range [][]float64{{1}, {1, 2}, {10, 20, 30, 40}} {
		if _, _, ok := QuantileRank(len(xs), math.NaN()); ok {
			t.Errorf("QuantileRank(%d, NaN) names a rank", len(xs))
		}
		if got := QuantileSorted(xs, math.NaN()); !math.IsNaN(got) {
			t.Errorf("QuantileSorted(%v, NaN) = %v, want NaN", xs, got)
		}
	}
}
