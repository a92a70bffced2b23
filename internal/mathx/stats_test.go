package mathx

import (
	"math"
	"math/rand/v2"
	"testing"
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
	if m, s := MeanStdDev(xs); m != Mean(xs) || !almostEqual(s, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("MeanStdDev = %v, %v, want 5, %v", m, s, math.Sqrt(32.0/7.0))
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if m, s := MeanStdDev([]float64{3}); m != 3 || s != 0 {
		t.Errorf("MeanStdDev of singleton = %v, %v, want 3, 0", m, s)
	}
}

// variance is the sample variance as two separate passes compute it: a
// fresh Mean, then the compensated sum of squared deviations over n-1,
// and 0 below two values.
func variance(xs []float64) float64 {
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

// MeanStdDev shares its mean pass between the two results, and gives
// the bits of Mean and math.Sqrt of the two-pass variance on columns
// with NaN and ±Inf, on zero, one and two values, and on a million
// lognormal trial losses.
func TestMeanStdDevMatchesSeparatePasses(t *testing.T) {
	r := rand.New(rand.NewPCG(51, 7))
	lognormal := make([]float64, 1_000_000)
	for i := range lognormal {
		lognormal[i] = math.Exp(11 + 1.7*r.NormFloat64())
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		xs   []float64
	}{
		{"empty", nil},
		{"one", []float64{4.5}},
		{"one NaN", []float64{nan}},
		{"two", []float64{1, 1e16}},
		{"two equal", []float64{0.1, 0.1}},
		{"NaN", []float64{1, nan, 3}},
		{"+Inf", []float64{1, inf, 3}},
		{"-Inf", []float64{1, -inf, 3}},
		{"both Inf", []float64{inf, -inf}},
		{"lognormal", lognormal},
	} {
		m, s := MeanStdDev(tc.xs)
		wm, ws := Mean(tc.xs), math.Sqrt(variance(tc.xs))
		if math.Float64bits(m) != math.Float64bits(wm) || math.Float64bits(s) != math.Float64bits(ws) {
			t.Errorf("%s: MeanStdDev = %v, %v, want %v, %v", tc.name, m, s, wm, ws)
		}
	}
}

// at reads a sorted slice for QuantileSorted.
func at(xs []float64) func(int) float64 { return func(i int) float64 { return xs[i] } }

func TestQuantileSortedInterpolation(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3.0, 20}, {0.25, 17.5},
		{-0.5, 10}, {1.5, 40},
	}
	for _, c := range cases {
		if got := QuantileSorted(len(xs), c.q, at(xs)); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("QuantileSorted(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// OrderBits orders numbers as < does, −0 and +0 tied, ±Inf at the ends.
func TestOrderBitsOrder(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	xs := []float64{math.Inf(-1), -math.MaxFloat64, -1, -tiny, math.Copysign(0, -1), 0, tiny, 0x1p-1022, 1, math.MaxFloat64, math.Inf(1)}
	for i, a := range xs {
		for _, b := range xs[i:] {
			ka, kb := OrderBits(a), OrderBits(b)
			if (a < b) != (ka < kb) || (a == b) != (ka == kb) {
				t.Errorf("OrderBits(%v) = %#x, OrderBits(%v) = %#x: not in the order of the numbers", a, ka, b, kb)
			}
		}
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
		if got := QuantileSorted(len(xs), math.NaN(), at(xs)); !math.IsNaN(got) {
			t.Errorf("QuantileSorted(%v, NaN) = %v, want NaN", xs, got)
		}
	}
}
