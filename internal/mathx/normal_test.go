package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStdNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{1.959963984540054, 0.975},
		{-3, 0.0013498980316300933},
	}
	for _, c := range cases {
		if got := StdNormalCDF(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Φ(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestStdNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-10, 1e-6, 0.001, 0.01, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999, 1 - 1e-9} {
		x := StdNormalQuantile(p)
		back := StdNormalCDF(x)
		if math.Abs(back-p) > 1e-10*math.Max(1, 1/p) && math.Abs(back-p) > 1e-12 {
			t.Errorf("Φ(Φ⁻¹(%v)) = %v", p, back)
		}
	}
}

func TestStdNormalQuantileEdges(t *testing.T) {
	if !math.IsInf(StdNormalQuantile(0), -1) {
		t.Error("Φ⁻¹(0) should be -Inf")
	}
	if !math.IsInf(StdNormalQuantile(1), 1) {
		t.Error("Φ⁻¹(1) should be +Inf")
	}
	if q := StdNormalQuantile(0.5); !almostEqual(q, 0, 1e-14) {
		t.Errorf("Φ⁻¹(0.5) = %v, want 0", q)
	}
	// Known value: Φ⁻¹(0.975) ≈ 1.959964
	if q := StdNormalQuantile(0.975); !almostEqual(q, 1.959963984540054, 1e-9) {
		t.Errorf("Φ⁻¹(0.975) = %v", q)
	}
}

func TestStdNormalQuantileMonotoneProperty(t *testing.T) {
	f := func(a, b float64) bool {
		pa := math.Abs(math.Mod(a, 1))
		pb := math.Abs(math.Mod(b, 1))
		if pa == 0 || pb == 0 || pa == 1 || pb == 1 {
			return true
		}
		if pa > pb {
			pa, pb = pb, pa
		}
		return StdNormalQuantile(pa) <= StdNormalQuantile(pb)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLogNormalMeanStd(t *testing.T) {
	mean, sd := 1000.0, 500.0
	mu, sigma := LogNormalMeanStd(mean, sd)
	// Moments of LogNormal(mu, sigma): E = exp(mu + sigma²/2),
	// Var = (exp(sigma²)-1)·exp(2mu+sigma²).
	gotMean := math.Exp(mu + sigma*sigma/2)
	gotVar := (math.Exp(sigma*sigma) - 1) * math.Exp(2*mu+sigma*sigma)
	if !almostEqual(gotMean, mean, 1e-9*mean) {
		t.Errorf("recovered mean %v, want %v", gotMean, mean)
	}
	if !almostEqual(math.Sqrt(gotVar), sd, 1e-9*sd) {
		t.Errorf("recovered sd %v, want %v", math.Sqrt(gotVar), sd)
	}
	if mu, _ := LogNormalMeanStd(-1, 1); !math.IsInf(mu, -1) {
		t.Error("non-positive mean should yield -Inf mu")
	}
}

func TestCholeskyKnown(t *testing.T) {
	a := NewMatrix(3)
	// A = L·Lᵀ with L = [[2,0,0],[6,1,0],[-8,5,3]]
	vals := [][]float64{
		{4, 12, -16},
		{12, 37, -43},
		{-16, -43, 98},
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, vals[i][j])
		}
	}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{2, 0, 0}, {6, 1, 0}, {-8, 5, 3}}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if !almostEqual(l.At(i, j), want[i][j], 1e-12) {
				t.Errorf("L[%d][%d] = %v, want %v", i, j, l.At(i, j), want[i][j])
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrix(2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 1) // eigenvalues 3, -1
	if _, err := Cholesky(a); err != ErrNotPositiveDefinite {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
	if _, jitter, err := CholeskyJittered(a, 3); err == nil {
		t.Fatalf("strongly indefinite matrix should fail even with small jitter %v", jitter)
	}
}

func TestCholeskyJitteredRecoversSemiDefinite(t *testing.T) {
	// Rank-deficient PSD matrix: ones everywhere (rank 1).
	a := NewMatrix(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, 1)
		}
	}
	l, jitter, err := CholeskyJittered(a, 12)
	if err != nil {
		t.Fatal(err)
	}
	if jitter <= 0 {
		t.Error("expected nonzero jitter for PSD matrix")
	}
	if l.At(0, 0) <= 0 {
		t.Error("factor should have positive diagonal")
	}
}

func TestCorrelationMatrixValid(t *testing.T) {
	m, err := CorrelationMatrix(4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 1 || m.At(0, 1) != 0.3 {
		t.Fatal("wrong structure")
	}
	if _, err := Cholesky(m); err != nil {
		t.Fatalf("equicorrelation 0.3 should be PD: %v", err)
	}
	if _, err := CorrelationMatrix(4, 1.0); err == nil {
		t.Error("rho=1 should be rejected")
	}
	if _, err := CorrelationMatrix(4, -0.5); err == nil {
		t.Error("rho=-0.5 with n=4 should be rejected (limit -1/3)")
	}
	if _, err := CorrelationMatrix(0, 0); err == nil {
		t.Error("n=0 should be rejected")
	}
}

func TestLowerMulVecMatchesMulVec(t *testing.T) {
	m, _ := CorrelationMatrix(5, 0.4)
	l, err := Cholesky(m)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, -2, 3, 0.5, 4}
	// The dense product, upper triangle included.
	want := make([]float64, 5)
	for i := range want {
		for j, xj := range x {
			want[i] += l.At(i, j) * xj
		}
	}
	got := make([]float64, 5)
	l.LowerMulVec(x, got)
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("component %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestCholeskyReconstructionProperty(t *testing.T) {
	// For random SPD matrices A = B·Bᵀ + n·I, L·Lᵀ must reconstruct A.
	f := func(seed uint8) bool {
		n := 4
		s := uint64(seed)*2654435761 + 1
		b := NewMatrix(n)
		for i := range b.Data {
			s = s*6364136223846793005 + 1442695040888963407
			b.Data[i] = float64(int64(s%2000)-1000) / 500
		}
		a := NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var v float64
				for k := 0; k < n; k++ {
					v += b.At(i, k) * b.At(j, k)
				}
				if i == j {
					v += float64(n)
				}
				a.Set(i, j, v)
			}
		}
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var v float64
				for k := 0; k < n; k++ {
					v += l.At(i, k) * l.At(j, k)
				}
				if !almostEqual(v, a.At(i, j), 1e-8*(1+math.Abs(a.At(i, j)))) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
