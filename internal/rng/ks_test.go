package rng

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/mathx"
)

// Distributional tests of Beta and the ziggurat primitives under it.
// The reference CDFs below share no code with the samplers: a
// continued fraction over math.Lgamma, mathx.StdNormalCDF (erfc) and
// 1 − e^{−x}. They are the acceptance test DESIGN.md's "Changing the
// numbers on purpose" asks of a PR that replaces a sampler.

// ksCritical bounds D·√n at α = 0.001 (Kolmogorov's asymptotic
// distribution: 2·exp(−2·1.95²) ≈ 0.001).
const ksCritical = 1.95

// bookShapes are beta plans elt.SampleParams produces on the four
// benchmark workloads' books, from the skewed small-mean end (most
// entries) to the rare a > 1 plan.
var bookShapes = [][2]float64{
	{0.017, 3.6}, {0.08, 7.4}, {0.23, 16.3}, {0.46, 31.8}, {0.74, 48.5}, {6, 86},
}

// regIncBeta returns the regularised incomplete beta function
// I_x(a, b), the Beta(a, b) CDF, by Lentz's evaluation of its continued
// fraction (Numerical Recipes §6.4), switching to 1 − I_{1−x}(b, a)
// where that converges faster.
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	if x > (a+1)/(a+b+2) {
		return 1 - regIncBeta(b, a, 1-x)
	}
	lga, _ := math.Lgamma(a)
	lgb, _ := math.Lgamma(b)
	lgab, _ := math.Lgamma(a + b)
	front := math.Exp(lgab-lga-lgb+a*math.Log(x)+b*math.Log1p(-x)) / a

	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1; m <= 10000; m++ {
		fm := float64(m)
		num := fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return front * h
}

// ksStat returns the Kolmogorov–Smirnov distance between the empirical
// distribution of sorted and cdf. Ties (a beta with a tiny shape draws
// exact zeros) are handled by comparing cdf with the empirical CDF just
// below and at each distinct value.
func ksStat(sorted []float64, cdf func(float64) float64) float64 {
	n := float64(len(sorted))
	d := 0.0
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		f := cdf(sorted[i])
		d = math.Max(d, math.Max(f-float64(i)/n, float64(j)/n-f))
		i = j
	}
	return d
}

// ksCheck draws n values and fails t when they are not from cdf at
// α = 0.001.
func ksCheck(t *testing.T, name string, n int, draw func() float64, cdf func(float64) float64) {
	t.Helper()
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = draw()
	}
	sort.Float64s(xs)
	d := ksStat(xs, cdf) * math.Sqrt(float64(n))
	t.Logf("%s: D·√n = %.3f over %d draws", name, d, n)
	if d >= ksCritical {
		t.Errorf("%s: D·√n = %.3f, want < %v", name, d, ksCritical)
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	asin := func(x float64) float64 { return 2 / math.Pi * math.Asin(math.Sqrt(x)) }
	for _, c := range []struct{ a, b, x, want float64 }{
		{1, 1, 0.3, 0.3},
		{2, 1, 0.5, 0.25},
		{1, 3, 0.2, 1 - 0.8*0.8*0.8},
		{2, 5, 0.4, 1 - math.Pow(0.6, 6) - 6*0.4*math.Pow(0.6, 5)}, // P(Bin(6, 0.4) ≥ 2)
		{0.5, 0.5, 0.1, asin(0.1)},
		{0.5, 0.5, 0.9, asin(0.9)},
		{0.25, 1, 1e-8, 1e-2},
	} {
		if got := regIncBeta(c.a, c.b, c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("I_%v(%v, %v) = %.15g, want %.15g", c.x, c.a, c.b, got, c.want)
		}
	}
}

func TestKSStatDetectsShift(t *testing.T) {
	s := New(5)
	uniform := func(x float64) float64 { return math.Min(1, math.Max(0, x)) }
	ksCheck(t, "uniform", 200000, s.Float64, uniform)
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = 0.99 * s.Float64()
	}
	sort.Float64s(xs)
	if d := ksStat(xs, uniform) * math.Sqrt(float64(len(xs))); d < ksCritical {
		t.Errorf("a 1%% scale error went unnoticed: D·√n = %.3f", d)
	}
}

func TestBetaKS(t *testing.T) {
	shapes := append([][2]float64{{0.5, 0.5}, {1.1, 0.3}, {2, 5}}, bookShapes...)
	for i, ab := range shapes {
		a, b := ab[0], ab[1]
		s := NewStream(2301, uint64(i))
		ksCheck(t, fmt.Sprintf("Beta(%v, %v)", a, b), 200000, func() float64 { return s.Beta(a, b) },
			func(x float64) float64 { return regIncBeta(a, b, x) })
	}
}

func TestZigguratNormalKS(t *testing.T) {
	s := New(2302)
	ksCheck(t, "ZigguratNormal", 1000000, s.ZigguratNormal, mathx.StdNormalCDF)
}

func TestZigguratExponentialKS(t *testing.T) {
	s := New(2303)
	ksCheck(t, "zigExponential", 1000000, s.zigExponential,
		func(x float64) float64 { return -math.Expm1(-x) })
}

// TestZigguratTailCounts holds the counts beyond fixed thresholds to
// their exact binomial expectations, within 4 σ. Beyond R these are the
// two rarely taken branches — the normal's Marsaglia tail and the
// exponential's restart — and below it the few wide outer strips, where
// a wrong wedge test misplaces a large share of a small mass that a KS
// distance over the whole line does not see.
func TestZigguratTailCounts(t *testing.T) {
	const n = 4 << 20
	normT := []float64{2, 3, 3.4, zigNormR}
	expT := []float64{4, 6, 7.2, zigExpR}
	var upper, lower, beyond [4]int
	s := New(2304)
	for i := 0; i < n; i++ {
		z, e := s.ZigguratNormal(), s.zigExponential()
		for k := range normT {
			if z > normT[k] {
				upper[k]++
			}
			if z < -normT[k] {
				lower[k]++
			}
			if e > expT[k] {
				beyond[k]++
			}
		}
	}
	within := func(name string, thr float64, got int, p float64) {
		t.Helper()
		mean, sd := n*p, math.Sqrt(n*p*(1-p))
		if math.Abs(float64(got)-mean) > 4*sd {
			t.Errorf("%s: %d of %d draws beyond %v, want %.0f ± %.0f", name, got, n, thr, mean, 4*sd)
		}
	}
	for k := range normT {
		p := math.Erfc(normT[k]/math.Sqrt2) / 2
		within("ZigguratNormal upper", normT[k], upper[k], p)
		within("ZigguratNormal lower", normT[k], lower[k], p)
		within("zigExponential", expT[k], beyond[k], math.Exp(-expT[k]))
	}
}

// TestZigguratTablesClose checks the two (R, layers) constants against
// each other: building 255 strips of the closed-form area upward from R
// must leave exactly one more strip's area under the density's peak.
func TestZigguratTablesClose(t *testing.T) {
	for _, c := range []struct {
		name string
		tab  *zigTable
	}{{"normal", &zigNorm}, {"exponential", &zigExp}} {
		v := c.tab.x[1] * (c.tab.f[2] - c.tab.f[1])
		top := c.tab.x[zigLayers-1] * (1 - c.tab.f[zigLayers-1])
		if math.Abs(top/v-1) > 1e-9 {
			t.Errorf("%s: top strip area %v, the others %v", c.name, top, v)
		}
		for i := 1; i <= zigLayers; i++ {
			if !(c.tab.x[i] < c.tab.x[i-1]) || !(c.tab.f[i] > c.tab.f[i-1]) {
				t.Fatalf("%s: strip %d not monotone", c.name, i)
			}
		}
	}
}

// binomialPMF is the exact Binomial(n, p) probability of k, from
// log-gamma rather than from any recurrence.
func binomialPMF(n, k int, p float64) float64 {
	ln, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return math.Exp(ln - lk - lnk + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
}

// chiSquareCritical is the 0.999 quantile of χ² with df degrees of
// freedom by the Wilson–Hilferty approximation (a little above the
// exact value at df = 1: 11.1 against 10.8).
func chiSquareCritical(df int) float64 {
	v := 2 / (9 * float64(df))
	c := 1 - v + 3.09*math.Sqrt(v)
	return float64(df) * c * c * c
}

// TestBinomialChiSquare holds Binomial's counts to the exact pmf over
// the small-n range stage 3 draws from, adjacent counts pooled until
// each cell expects at least five.
func TestBinomialChiSquare(t *testing.T) {
	const draws = 200_000
	for i, n := range []int{1, 40, 64} {
		for j, p := range []float64{0.001, 0.01, 0.3, 0.97} {
			s := NewStream(2306, uint64(4*i+j))
			counts := make([]int, n+1)
			for d := 0; d < draws; d++ {
				counts[s.Binomial(n, p)]++
			}
			var chi2, obs, exp float64
			cells := 0
			for k := 0; k <= n; k++ {
				obs += float64(counts[k])
				exp += draws * binomialPMF(n, k, p)
				if exp >= 5 && (k == n || draws*(1-cumPMF(n, k, p)) >= 5) {
					chi2 += (obs - exp) * (obs - exp) / exp
					obs, exp = 0, 0
					cells++
				}
			}
			if cells < 2 {
				t.Fatalf("Binomial(%d, %v): %d cell(s), nothing to test", n, p, cells)
			}
			crit := chiSquareCritical(cells - 1)
			t.Logf("Binomial(%d, %v): χ² = %.2f over %d cells, critical %.2f", n, p, chi2, cells, crit)
			if chi2 >= crit {
				t.Errorf("Binomial(%d, %v): χ² = %.2f over %d cells, want < %.2f", n, p, chi2, cells, crit)
			}
		}
	}
}

// cumPMF is P(X ≤ k) for X ~ Binomial(n, p).
func cumPMF(n, k int, p float64) float64 {
	var sum float64
	for j := 0; j <= k; j++ {
		sum += binomialPMF(n, j, p)
	}
	return sum
}

func TestBetaTinyShapesStayFinite(t *testing.T) {
	s := New(2305)
	for _, ab := range [][2]float64{{1e-9, 5}, {5e-324, 5}, {5, 1e-9}} {
		for i := 0; i < 100000; i++ {
			if x := s.Beta(ab[0], ab[1]); !(x >= 0 && x <= 1) {
				t.Fatalf("Beta(%v, %v) = %v", ab[0], ab[1], x)
			}
		}
	}
	before := *s
	if s.Beta(0, 1) != 0 || s.Beta(1, -1) != 0 || *s != before {
		t.Error("a ≤ 0 or b ≤ 0 must return 0 without consuming a draw")
	}
}

// TestBetaIgnoresPolarSpare: the kernels reseed one stream per trial,
// and Beta's draws must depend on (seed, id) alone, whatever StdNormal
// left cached before.
func TestBetaIgnoresPolarSpare(t *testing.T) {
	fresh := NewStream(77, 12)
	want := [2]float64{fresh.Beta(0.23, 16.3), fresh.Beta(6, 86)}

	used := NewStream(3, 4)
	used.StdNormal()
	if !used.hasSpare {
		t.Fatal("StdNormal left no spare; the test pins nothing")
	}
	used.Reseed(77, 12)
	if got := [2]float64{used.Beta(0.23, 16.3), used.Beta(6, 86)}; got != want {
		t.Errorf("after Reseed: %v, want %v", got, want)
	}
}

var binomialSink int

// BenchmarkBinomialSmall is one Counterparty default count: 40
// counterparties at a calm and at a stressed conditional PD.
func BenchmarkBinomialSmall(b *testing.B) {
	for _, p := range []float64{0.01, 0.3} {
		b.Run(fmt.Sprintf("n=40/p=%v", p), func(b *testing.B) {
			s := New(1)
			for i := 0; i < b.N; i++ {
				binomialSink += s.Binomial(40, p)
			}
		})
	}
}

var betaSink float64

// BenchmarkBetaBookShapes is the per-draw cost of the stage-2
// secondary-uncertainty primitive on the benchmark books' plans.
func BenchmarkBetaBookShapes(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		ab := bookShapes[i%len(bookShapes)]
		betaSink += s.Beta(ab[0], ab[1])
	}
}
