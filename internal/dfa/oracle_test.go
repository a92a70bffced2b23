package dfa

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/mathx"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/ylt"
)

// naiveRun is the body Integrator.Run had before the pair argsort
// (a90cca3), kept as the oracle: a serial reflection argsort of the cat
// losses, a serial z-score pass, one heap rng.Stream per trial, every
// source's constants re-derived per trial (naiveLoss), and all
// per-source tables always built. It reaches the arithmetic stage 3
// defines rather than implements — its normal sampler (drawNormal) and
// the uniform a MarketCycle or custom source reads (sourceUniform) —
// through the same functions as Run, so the two move together when
// those change on purpose (DESIGN.md § Determinism, rule 1).
func naiveRun(ctx context.Context, ig *Integrator, cat *ylt.Table, cfg Config) (*Result, error) {
	if cat == nil || cat.NumTrials() == 0 {
		return nil, errors.New("dfa: missing catastrophe YLT")
	}
	if len(ig.Sources) == 0 {
		return nil, errors.New("dfa: no sources to integrate")
	}
	k := len(ig.Sources) + 1 // coordinate 0 is the cat book

	corr := cfg.Corr
	if corr == nil {
		rho := cfg.Rho
		var err error
		corr, err = mathx.CorrelationMatrix(k, rho)
		if err != nil {
			return nil, fmt.Errorf("dfa: correlation: %w", err)
		}
	}
	if corr.N != k {
		return nil, fmt.Errorf("dfa: correlation matrix is %d×%d, need %d", corr.N, corr.N, k)
	}
	chol, jitter, err := mathx.CholeskyJittered(corr, 12)
	if err != nil {
		return nil, fmt.Errorf("dfa: correlation not factorizable (jitter reached %g): %w", jitter, err)
	}

	n := cat.NumTrials()

	// Rank-transform the cat losses into standard normals: the copula
	// conditions every financial source on how bad the catastrophe
	// year was. Ties (e.g. many zero-loss years) share the rank range
	// deterministically by trial order.
	zCat := make([]float64, n)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return cat.Agg[idx[a]] < cat.Agg[idx[b]] })
	for rank, trial := range idx {
		zCat[trial] = mathx.StdNormalQuantile((float64(rank) + 0.5) / float64(n))
	}

	res := &Result{Cat: cat, PerSource: make([]*ylt.Table, len(ig.Sources))}
	for i, s := range ig.Sources {
		res.PerSource[i] = ylt.NewAggOnly(s.Name(), n)
	}
	var enterprise *ylt.Table
	if cat.HasOccurrence() {
		enterprise = ylt.New("enterprise", n)
	} else {
		enterprise = ylt.NewAggOnly("enterprise", n)
	}
	res.Enterprise = enterprise

	err = stream.ForEachRange(ctx, n, cfg.Workers, func(ctx context.Context, r stream.Range, _ int) error {
		w := make([]float64, k)
		z := make([]float64, k)
		for trial := r.Lo; trial < r.Hi; trial++ {
			if trial%4096 == 0 {
				select {
				case <-ctx.Done():
					return ctx.Err()
				default:
				}
			}
			st := rng.NewStream(cfg.Seed, uint64(trial))
			// Conditional Gaussian copula: coordinate 0 is pinned to
			// the cat year's z-score (L[0][0] == 1 for a correlation
			// matrix, so w[0] = z[0]).
			w[0] = zCat[trial]
			for i := 1; i < k; i++ {
				w[i] = drawNormal(st)
			}
			chol.LowerMulVec(w, z)
			total := cat.Agg[trial]
			for i, s := range ig.Sources {
				loss := naiveLoss(s, z[i+1], st)
				res.PerSource[i].Agg[trial] = loss
				total += loss
			}
			enterprise.Agg[trial] = total
			if enterprise.OccMax != nil {
				enterprise.OccMax[trial] = cat.OccMax[trial]
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res.TotalBytes = cat.SizeBytes() + enterprise.SizeBytes()
	for _, t := range res.PerSource {
		res.TotalBytes += t.SizeBytes()
	}
	return res, nil
}

// naiveLossZ is a standard source's loss at the normal z its formula
// reads, as Source.Loss computed it before the per-run plans (a90cca3):
// Reserve, Counterparty and Operational re-derive their constants on
// every call. It reports false, drawing nothing, for a source without a
// normal-space plan.
func naiveLossZ(s Source, z float64, aux *rng.Stream) (float64, bool) {
	switch s := s.(type) {
	case Investment:
		ret := s.MeanReturn - s.Volatility*z
		return -s.Assets * ret, true
	case InterestRate:
		shift := s.MeanShift + s.Vol*z
		return s.Notional * s.Duration * shift, true
	case Reserve:
		mu, sigma := mathx.LogNormalMeanStd(1, s.CoV)
		return s.Reserves * math.Expm1(z*sigma+mu), true
	case Counterparty:
		if s.N <= 0 || s.PD <= 0 {
			return 0, true
		}
		rho := mathx.Clamp(s.FactorRho, 0, 0.97)
		pdCond := mathx.StdNormalCDF((mathx.StdNormalQuantile(s.PD) + math.Sqrt(rho)*z) / math.Sqrt(1-rho))
		defaults := aux.Binomial(s.N, pdCond)
		return s.Recoverables * float64(defaults) / float64(s.N) * s.LGD, true
	case Operational:
		n := aux.Poisson(s.Freq)
		if n == 0 {
			return 0, true
		}
		mu, sigma := mathx.LogNormalMeanStd(s.SevMean, s.SevMean*s.SevCoV)
		var sum float64
		for i := 0; i < n; i++ {
			sum += math.Exp(mu + sigma*drawNormal(aux))
		}
		beta := s.StressBeta
		stress := math.Exp(beta*z - beta*beta/2)
		return sum * stress, true
	}
	return 0, false
}

// naiveLoss is the oracle's loss of source s for the copula normal x.
func naiveLoss(s Source, x float64, aux *rng.Stream) float64 {
	if loss, ok := naiveLossZ(s, x, aux); ok {
		return loss
	}
	return s.Loss(sourceUniform(x), aux)
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// Run must equal the pre-argsort body bit for bit — enterprise and
// per-source columns — whatever the trial count, the tie structure and
// the worker count (one run, uneven runs, more workers than trials).
func TestRunMatchesNaive(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{1, 2, 3, 17, 4097, 50_000} {
		for name, cat := range map[string]*ylt.Table{"tied": catTable(n, uint64(n)), "distinct": distinctTable(n, uint64(n))} {
			sources := append(StandardSources(cat.Mean()), tiltSource{scale: 1e5})
			want, err := naiveRun(ctx, &Integrator{Sources: sources}, cat, Config{Seed: 41, Rho: 0.2})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 7, n + 1} {
				got, err := (&Integrator{Sources: sources}).Run(ctx, cat, Config{Seed: 41, Rho: 0.2, Workers: workers, KeepPerSource: true})
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(got.Enterprise.Agg, want.Enterprise.Agg) || !sameBits(got.Enterprise.OccMax, want.Enterprise.OccMax) {
					t.Fatalf("%s n=%d workers=%d: enterprise table differs from the naive run", name, n, workers)
				}
				for i := range want.PerSource {
					if got.PerSource[i].Name != want.PerSource[i].Name || !sameBits(got.PerSource[i].Agg, want.PerSource[i].Agg) {
						t.Fatalf("%s n=%d workers=%d: source %d differs from the naive run", name, n, workers, i)
					}
				}
				if got.TotalBytes != want.TotalBytes {
					t.Fatalf("%s n=%d workers=%d: TotalBytes %d, naive %d", name, n, workers, got.TotalBytes, want.TotalBytes)
				}
			}
		}
	}
}

// A source's per-run form must return the bits of the oracle's loss and
// leave the auxiliary stream in the same state, over copula normals that
// reach both tails and for parameters on both sides of every branch; and
// each standard source's exported Loss(u) must be its formula at Φ⁻¹(u).
func TestPlansMatchUnplannedLoss(t *testing.T) {
	sources := append(StandardSources(3e7),
		Reserve{Reserves: 1e6, CoV: 0},
		Counterparty{Recoverables: 1e6, N: 0, PD: 0.1},
		Counterparty{Recoverables: 1e6, N: 10, PD: 0},
		Counterparty{Recoverables: 5e6, N: 200, PD: 0.03, LGD: 0.4, FactorRho: 0.99},
		Counterparty{Recoverables: 5e6, N: 30, PD: 0.2, LGD: 1, FactorRho: -0.5},
		Operational{Freq: 0, SevMean: 1, SevCoV: 1},
		Operational{Freq: 45, SevMean: 2e4, SevCoV: 0.7, StressBeta: 0.1},
		Operational{Freq: 2, SevMean: 0, SevCoV: 1, StressBeta: 0.3},
		tiltSource{scale: 1e5},
	)
	xs := []float64{-39, -8.5, 8.5, 39}
	for step := 0; step <= 200; step++ {
		xs = append(xs, -6+0.06*float64(step))
	}
	for i, s := range sources {
		planned := planSource(s)
		for id := uint64(0); id < 40; id++ {
			a, b := rng.NewStream(99, id), rng.NewStream(99, id)
			a.StdNormal() // leave a cached spare normal, as a trial's copula draws may
			b.StdNormal()
			for _, x := range xs {
				got, want := planned.loss(x, a), naiveLoss(s, x, b)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("source %d (%s) x=%g: planned %v, oracle %v", i, s.Name(), x, got, want)
				}
				u := mathx.StdNormalCDF(x)
				if u <= 0 || u >= 1 {
					continue
				}
				via := s.Loss(u, rng.NewStream(7, id))
				if want, ok := naiveLossZ(s, mathx.StdNormalQuantile(u), rng.NewStream(7, id)); ok && math.Float64bits(via) != math.Float64bits(want) {
					t.Fatalf("source %d (%s) u=%g: Loss %v differs from its formula at Φ⁻¹(u), %v", i, s.Name(), u, via, want)
				}
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("source %d (%s): planned and oracle loss left the stream in different states", i, s.Name())
			}
		}
	}
}
