package dfa

import (
	"context"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/mathx"
)

// Stage 3 held to closed forms, not to another copy of its code
// (DESIGN.md § Determinism, rule 2): each standard source's marginal
// against its distribution, the dependence against the correlation
// asked for. The references below are written out from the sources'
// definitions; none calls a plan, Loss or a mathx parameter conversion.

// ksCritical bounds D·√n at α = 0.001.
const ksCritical = 1.95

// ksStat returns the Kolmogorov–Smirnov distance between the empirical
// distribution of sorted and cdf, tie-aware.
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

const closedFormTrials = 200_000

// closedFormRun is one run of the standard sources at ρ = 0.25 over a
// cat book without ties, shared by the checks below.
var closedFormRun = sync.OnceValues(func() (*Result, error) {
	cat := distinctTable(closedFormTrials, 51)
	ig := &Integrator{Sources: StandardSources(cat.Mean())}
	return ig.Run(context.Background(), cat, Config{Seed: 61, Rho: 0.25, Workers: 2, KeepPerSource: true})
})

// closedFormColumn returns the shared run, the named standard source and
// its per-trial losses.
func closedFormColumn(t *testing.T, name string) (*Result, Source, []float64) {
	t.Helper()
	res, err := closedFormRun()
	if err != nil {
		t.Fatal(err)
	}
	sources := StandardSources(res.Cat.Mean())
	for i, s := range sources {
		if s.Name() == name {
			return res, s, res.PerSource[i].Agg
		}
	}
	t.Fatalf("no source %q", name)
	return nil, nil, nil
}

func ksAgainst(t *testing.T, name string, xs []float64, cdf func(float64) float64) {
	t.Helper()
	sorted := slices.Clone(xs)
	sort.Float64s(sorted)
	d := ksStat(sorted, cdf) * math.Sqrt(float64(len(sorted)))
	t.Logf("%s: D·√n = %.3f over %d trials", name, d, len(sorted))
	if d >= ksCritical {
		t.Errorf("%s: D·√n = %.3f, want < %v", name, d, ksCritical)
	}
}

// Investment's loss is −A·(m − v·x) and InterestRate's N·D·(s + σ·x)
// for a standard normal x: normal marginals.
func TestMarketSourcesNormalMarginals(t *testing.T) {
	_, s, inv := closedFormColumn(t, "investment")
	i := s.(Investment)
	ksAgainst(t, "investment", inv, func(y float64) float64 {
		return mathx.StdNormalCDF((y + i.Assets*i.MeanReturn) / (i.Assets * i.Volatility))
	})
	_, s, ir := closedFormColumn(t, "interest-rate")
	r := s.(InterestRate)
	scale := r.Notional * r.Duration
	ksAgainst(t, "interest-rate", ir, func(y float64) float64 {
		return mathx.StdNormalCDF((y - scale*r.MeanShift) / (scale * r.Vol))
	})
}

// Reserve's loss is R·(X − 1) for X lognormal with mean 1 and the
// source's CoV: log X is normal with σ² = ln(1 + CoV²), μ = −σ²/2.
func TestReserveLognormalMarginal(t *testing.T) {
	_, s, rsv := closedFormColumn(t, "reserve")
	r := s.(Reserve)
	sigma := math.Sqrt(math.Log1p(r.CoV * r.CoV))
	mu := -sigma * sigma / 2
	ksAgainst(t, "reserve", rsv, func(y float64) float64 {
		if 1+y/r.Reserves <= 0 {
			return 0
		}
		return mathx.StdNormalCDF((math.Log1p(y/r.Reserves) - mu) / sigma)
	})
}

// meanWithin fails t unless the sample mean of xs is within four of its
// standard errors of want.
func meanWithin(t *testing.T, name string, xs []float64, want float64) {
	t.Helper()
	var sum, sq float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	for _, x := range xs {
		sq += (x - mean) * (x - mean)
	}
	se := math.Sqrt(sq / float64(len(xs)-1) / float64(len(xs)))
	t.Logf("%s: mean %.6g, want %.6g ± %.3g (4 s.e.)", name, mean, want, 4*se)
	if math.Abs(mean-want) > 4*se {
		t.Errorf("%s: mean %.6g, want %.6g ± %.3g (4 s.e.)", name, mean, want, 4*se)
	}
}

// Under the Vasicek model the systematic factor averages out: the
// unconditional default rate is PD. The loss is Recoverables · LGD ·
// defaults / N.
func TestCounterpartyDefaultRateIsPD(t *testing.T) {
	_, s, cp := closedFormColumn(t, "counterparty")
	c := s.(Counterparty)
	rate := make([]float64, len(cp))
	for i, loss := range cp {
		rate[i] = loss / (c.Recoverables * c.LGD)
	}
	meanWithin(t, "counterparty default rate", rate, c.PD)
}

// The stress factor exp(βx − β²/2) has mean 1, so the compound
// Poisson's mean Freq · SevMean survives it.
func TestOperationalMean(t *testing.T) {
	_, s, op := closedFormColumn(t, "operational")
	o := s.(Operational)
	meanWithin(t, "operational", op, o.Freq*o.SevMean)
}

// normalScores replaces each value by Φ⁻¹((rank+½)/n), ties broken by
// position.
func normalScores(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	scores := make([]float64, len(xs))
	for rank, i := range idx {
		scores[i] = mathx.StdNormalQuantile((float64(rank) + 0.5) / float64(len(xs)))
	}
	return scores
}

// The copula's dependence, read back from the outputs: a source whose
// loss increases with its copula normal has a normal-score correlation
// with the catastrophe column equal to the correlation asked for.
func TestNormalScoreCorrelationIsRho(t *testing.T) {
	res, _, _ := closedFormColumn(t, "investment")
	cat := normalScores(res.Cat.Agg)
	for _, name := range []string{"investment", "interest-rate", "reserve"} {
		_, _, col := closedFormColumn(t, name)
		r := mathx.Correlation(cat, normalScores(col))
		// The estimate's standard error is ≈ (1 − ρ²)/√n ≈ 0.002.
		t.Logf("%s: normal-score correlation with the catastrophe column %.4f", name, r)
		if math.Abs(r-0.25) > 0.01 {
			t.Errorf("%s: normal-score correlation with the catastrophe column %.4f, want 0.25 ± 0.01", name, r)
		}
	}
}
