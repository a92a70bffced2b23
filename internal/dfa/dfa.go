// Package dfa implements stage 3, Dynamic Financial Analysis: "The
// aggregate YLTs of catastrophe risks are integrated with investment,
// reserving, interest rate, market cycle, counter-party, and
// operational risks in the simulation" (§II). The integrator runs one
// enterprise trial per pre-simulated year, couples the risk sources
// through a Gaussian copula (conditioning on the catastrophe year's
// severity rank so financial stress co-moves with cat years), and
// emits the enterprise Year-Loss Table from which PML and TVaR flow to
// enterprise risk management — and, on request, one table per source.
//
// A run ranks the catastrophe losses once (rankTransform: a parallel
// argsort of (loss, trial) pairs, which is the stable order of the
// losses) and hands the sorted column on as Result.CatSorted; it
// evaluates each standard source's constants once per run, not once per
// trial, and hands it its copula normal without a round trip through
// Φ and Φ⁻¹; every normal it draws is a ziggurat normal; and it carries
// only the tables its caller reports.
package dfa

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"

	"repro/internal/mathx"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/ylt"
)

// Source is one non-catastrophe risk model. Implementations must be
// pure functions of their arguments: u is the copula-correlated
// uniform driving the source's systematic severity, aux is a
// per-(trial, source) stream for idiosyncratic draws. Run hands a
// source u = Φ(x) of its copula normal x, clamped so that u stays
// strictly inside (0, 1) where Φ would round to 0 or 1.
//
// Run calls Loss for MarketCycle and for custom sources only. The other
// standard sources read x itself: their Loss(u, aux) is the same formula
// at x = Φ⁻¹(u), for callers that hold a uniform.
//
// Severity convention: higher u must mean a worse outcome (larger
// loss) for the enterprise. The integrator pins u's dependence to the
// catastrophe year's severity rank, so a source violating this
// convention would hedge cat years instead of compounding them.
type Source interface {
	// Name labels the source's YLT.
	Name() string
	// Loss returns the annual loss for one trial. Negative losses are
	// gains (e.g. investment income).
	Loss(u float64, aux *rng.Stream) float64
}

// --- concrete sources ---

// Investment models asset-portfolio return risk: a normal annual
// return on invested assets; loss is the negative return.
type Investment struct {
	Assets     float64
	MeanReturn float64 // e.g. 0.05
	Volatility float64 // e.g. 0.12
}

// Name implements Source.
func (s Investment) Name() string { return "investment" }

// Loss implements Source.
func (s Investment) Loss(u float64, aux *rng.Stream) float64 {
	return s.lossZ(mathx.StdNormalQuantile(u), aux)
}

// lossZ is Loss at the copula normal x = Φ⁻¹(u).
func (s Investment) lossZ(x float64, _ *rng.Stream) float64 {
	// High severity x = poor markets = low return (severity convention).
	ret := s.MeanReturn - s.Volatility*x
	return -s.Assets * ret
}

// InterestRate models mark-to-market loss on a bond book from a
// parallel yield-curve shift: loss = notional · duration · Δr.
type InterestRate struct {
	Notional  float64
	Duration  float64 // modified duration, years
	MeanShift float64 // expected annual rate drift
	Vol       float64 // annual rate volatility, e.g. 0.01
}

// Name implements Source.
func (s InterestRate) Name() string { return "interest-rate" }

// Loss implements Source.
func (s InterestRate) Loss(u float64, aux *rng.Stream) float64 {
	return s.lossZ(mathx.StdNormalQuantile(u), aux)
}

// lossZ is Loss at the copula normal x = Φ⁻¹(u).
func (s InterestRate) lossZ(x float64, _ *rng.Stream) float64 {
	shift := s.MeanShift + s.Vol*x
	return s.Notional * s.Duration * shift
}

// Reserve models adverse development of held loss reserves as a
// mean-one lognormal deviation: loss = reserves · (X − 1).
type Reserve struct {
	Reserves float64
	CoV      float64 // coefficient of variation of development
}

// Name implements Source.
func (s Reserve) Name() string { return "reserve" }

// Loss implements Source.
func (s Reserve) Loss(u float64, aux *rng.Stream) float64 {
	return s.plan().lossZ(mathx.StdNormalQuantile(u), aux)
}

// reservePlan is a Reserve with the lognormal parameters evaluated.
type reservePlan struct {
	reserves, mu, sigma float64
}

func (s Reserve) plan() reservePlan {
	mu, sigma := mathx.LogNormalMeanStd(1, s.CoV)
	return reservePlan{reserves: s.Reserves, mu: mu, sigma: sigma}
}

// lossZ is Reserve.Loss at the copula normal x = Φ⁻¹(u).
func (p reservePlan) lossZ(x float64, _ *rng.Stream) float64 {
	// exp(x) - 1 via Expm1 to avoid cancellation for mild developments.
	return p.reserves * math.Expm1(x*p.sigma+p.mu)
}

// Counterparty models default of reinsurance counterparties holding
// recoverables, using the Vasicek one-factor portfolio model: the
// copula normal is the systematic factor that stresses every
// counterparty's conditional default probability; defaults themselves
// are idiosyncratic binomial draws.
type Counterparty struct {
	Recoverables float64 // total ceded recoverables at risk
	N            int     // number of counterparties
	PD           float64 // unconditional annual default probability
	LGD          float64 // loss given default, (0, 1]
	FactorRho    float64 // asset correlation to the systematic factor
}

// Name implements Source.
func (s Counterparty) Name() string { return "counterparty" }

// Loss implements Source.
func (s Counterparty) Loss(u float64, aux *rng.Stream) float64 {
	return s.plan().lossZ(mathx.StdNormalQuantile(u), aux)
}

// counterpartyPlan is a Counterparty with the Vasicek constants
// evaluated: Φ⁻¹(PD), √ρ and √(1−ρ).
type counterpartyPlan struct {
	Counterparty
	qPD, sqrtRho, sqrtOneMinusRho float64
}

func (s Counterparty) plan() counterpartyPlan {
	rho := mathx.Clamp(s.FactorRho, 0, 0.97)
	return counterpartyPlan{
		Counterparty:    s,
		qPD:             mathx.StdNormalQuantile(s.PD),
		sqrtRho:         math.Sqrt(rho),
		sqrtOneMinusRho: math.Sqrt(1 - rho),
	}
}

// lossZ is Counterparty.Loss at the copula normal x = Φ⁻¹(u).
func (p counterpartyPlan) lossZ(x float64, aux *rng.Stream) float64 {
	if p.N <= 0 || p.PD <= 0 {
		return 0
	}
	// Vasicek conditional PD given systematic factor x (stress when x
	// is large: cat-heavy years impair reinsurers).
	pdCond := mathx.StdNormalCDF((p.qPD + p.sqrtRho*x) / p.sqrtOneMinusRho)
	defaults := aux.Binomial(p.N, pdCond)
	return p.Recoverables * float64(defaults) / float64(p.N) * p.LGD
}

// Operational models operational-loss risk as a compound Poisson with
// lognormal severities, scaled by a mild systematic stress factor.
type Operational struct {
	Freq       float64 // expected loss events per year
	SevMean    float64 // mean severity
	SevCoV     float64
	StressBeta float64 // exposure of severity to the systematic factor
}

// Name implements Source.
func (s Operational) Name() string { return "operational" }

// Loss implements Source.
func (s Operational) Loss(u float64, aux *rng.Stream) float64 {
	return s.plan().lossZ(mathx.StdNormalQuantile(u), aux)
}

// operationalPlan is an Operational with the severity's lognormal
// parameters evaluated.
type operationalPlan struct {
	freq, beta, mu, sigma float64
}

func (s Operational) plan() operationalPlan {
	mu, sigma := mathx.LogNormalMeanStd(s.SevMean, s.SevMean*s.SevCoV)
	return operationalPlan{freq: s.Freq, beta: s.StressBeta, mu: mu, sigma: sigma}
}

// lossZ is Operational.Loss at the copula normal x = Φ⁻¹(u).
func (p operationalPlan) lossZ(x float64, aux *rng.Stream) float64 {
	n := aux.Poisson(p.freq)
	if n == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += math.Exp(p.mu + p.sigma*drawNormal(aux))
	}
	stress := math.Exp(p.beta*x - p.beta*p.beta/2)
	return sum * stress
}

// MarketCycle models the underwriting cycle: soft markets erode
// premium adequacy (a loss relative to plan), hard markets add margin.
type MarketCycle struct {
	Premium    float64
	SoftProb   float64 // probability of a soft-market year
	HardProb   float64
	SoftMargin float64 // e.g. 0.08: 8% of premium lost vs plan
	HardMargin float64 // e.g. 0.06: 6% gained
}

// Name implements Source.
func (s MarketCycle) Name() string { return "market-cycle" }

// Loss implements Source.
func (s MarketCycle) Loss(u float64, _ *rng.Stream) float64 {
	switch {
	case u > 1-s.SoftProb:
		// High severity = soft market = inadequate premium.
		return s.Premium * s.SoftMargin
	case u < s.HardProb:
		return -s.Premium * s.HardMargin
	default:
		return 0
	}
}

// StandardSources returns the paper's six-risk integration set, sized
// relative to the catastrophe book's average annual loss so that the
// enterprise distribution has realistic proportions.
func StandardSources(catAAL float64) []Source {
	scale := catAAL
	if scale <= 0 {
		scale = 1
	}
	return []Source{
		Investment{Assets: 20 * scale, MeanReturn: 0.05, Volatility: 0.10},
		InterestRate{Notional: 15 * scale, Duration: 4.5, MeanShift: 0, Vol: 0.008},
		Reserve{Reserves: 8 * scale, CoV: 0.10},
		MarketCycle{Premium: 3 * scale, SoftProb: 0.3, HardProb: 0.25, SoftMargin: 0.08, HardMargin: 0.06},
		Counterparty{Recoverables: 2 * scale, N: 40, PD: 0.01, LGD: 0.55, FactorRho: 0.25},
		Operational{Freq: 1.5, SevMean: 0.05 * scale, SevCoV: 1.5, StressBeta: 0.25},
	}
}

// drawNormal is stage 3's one standard-normal sampler: the copula's
// independent coordinates and Operational's lognormal severities draw
// from it, in Run and in its oracle alike.
func drawNormal(st *rng.Stream) float64 { return st.ZigguratNormal() }

// sourceUniform is the u a MarketCycle or custom source reads for the
// copula normal x: Φ(x), kept inside the open interval (0, 1) the Source
// contract promises where Φ rounds to 0 (x below ≈ −38.5) or to 1 (x
// above ≈ 8.3).
func sourceUniform(x float64) float64 {
	return mathx.Clamp(mathx.StdNormalCDF(x), math.SmallestNonzeroFloat64, 1-0x1p-53)
}

// runSource is a source as Run calls it, with its per-run constants
// evaluated. A standard source with a normal-space plan has lossZ set
// and reads the copula normal as it is: turning it into Φ(x) and
// straight back would cost two erfc, an exp and a rational inverse per
// source and trial, and saturate to ±Inf beyond |x| ≈ 8.3. MarketCycle
// and custom sources are called through the interface.
type runSource struct {
	lossZ func(x float64, aux *rng.Stream) float64
	src   Source
}

// planSource returns s's per-run form.
func planSource(s Source) runSource {
	switch s := s.(type) {
	case Investment:
		return runSource{lossZ: s.lossZ}
	case InterestRate:
		return runSource{lossZ: s.lossZ}
	case Reserve:
		return runSource{lossZ: s.plan().lossZ}
	case Counterparty:
		return runSource{lossZ: s.plan().lossZ}
	case Operational:
		return runSource{lossZ: s.plan().lossZ}
	}
	return runSource{src: s}
}

// loss returns the source's loss for one trial with copula normal x.
func (r runSource) loss(x float64, aux *rng.Stream) float64 {
	if r.lossZ != nil {
		return r.lossZ(x, aux)
	}
	return r.src.Loss(sourceUniform(x), aux)
}

// Config controls an integration run.
type Config struct {
	Seed    uint64
	Workers int
	// Rho is the equicorrelation among all risk coordinates (the cat
	// book is coordinate 0). Ignored when Corr is set.
	Rho float64
	// Corr optionally supplies the full (1+len(Sources))² correlation
	// matrix. Run rejects one that is not a correlation matrix: every
	// diagonal cell must be 1 and the matrix symmetric (both to within
	// corrTol), every cell within [-1, 1].
	Corr *mathx.Matrix
	// KeepPerSource makes Run fill Result.PerSource: one full-length
	// table per source, three fifths of the stage's bytes with the six
	// standard sources. The pipeline reads only the enterprise total and
	// leaves it off; dfarun and experiment E9 report per source and set
	// it.
	KeepPerSource bool
}

// Result is the output of an integration.
type Result struct {
	// Cat is the input catastrophe YLT (coordinate 0).
	Cat *ylt.Table
	// CatSorted is Cat.Agg in ascending order — a by-product of the rank
	// transform, handed on so that the catastrophe report reads its order
	// statistics from it directly (metrics.NewViewSorted).
	CatSorted []float64
	// PerSource holds one YLT per non-cat source, in input order. It is
	// nil unless Config.KeepPerSource was set.
	PerSource []*ylt.Table
	// Enterprise is the per-trial sum of cat and all sources. When Cat
	// has occurrence detail, Enterprise.OccMax is an element-wise copy of
	// Cat.OccMax (no source has occurrences), so the two tables' sorted
	// occurrence columns are the same column. It is a copy, not an
	// alias: scaling one table in place must not reach the other.
	Enterprise *ylt.Table
	// TotalBytes is the summed serialized size of the tables the run
	// holds — Cat, Enterprise and, with KeepPerSource, every per-source
	// table — the stage-3 data-volume accounting for experiment E9.
	TotalBytes int64
}

// Integrator couples a catastrophe YLT with parametric risk sources.
type Integrator struct {
	Sources []Source
}

// corrTol is how far a supplied correlation matrix may be from a unit
// diagonal and from symmetry: room for the rounding of an estimate
// computed as cov/(sd·sd), nothing more.
const corrTol = 1e-9

// checkCorr rejects a supplied matrix that is not a k×k correlation
// matrix, naming the first offending cell. Cholesky reads only the
// lower triangle, so without this an asymmetric or mis-scaled matrix
// would be integrated silently under a different dependence than the
// one asked for.
func checkCorr(corr *mathx.Matrix, k int) error {
	if corr.N != k || len(corr.Data) != k*k {
		return fmt.Errorf("dfa: correlation matrix is %d×%d, need %d", corr.N, corr.N, k)
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			v := corr.At(i, j)
			switch {
			case !(v >= -1-corrTol && v <= 1+corrTol):
				return fmt.Errorf("dfa: correlation[%d][%d] = %g is outside [-1, 1]", i, j, v)
			case i == j && math.Abs(v-1) > corrTol:
				return fmt.Errorf("dfa: correlation[%d][%d] = %g, the diagonal must be 1", i, j, v)
			case j < i && math.Abs(v-corr.At(j, i)) > corrTol:
				return fmt.Errorf("dfa: correlation[%d][%d] = %g but [%d][%d] = %g, the matrix must be symmetric", i, j, v, j, i, corr.At(j, i))
			}
		}
	}
	return nil
}

// rankKey is one catastrophe year in the rank transform. Ordering the
// pairs by (loss, trial) is exactly the stable order of the losses:
// equal losses keep their trial order.
type rankKey struct {
	loss  float64
	trial int
}

func compareRankKeys(a, b rankKey) int {
	switch {
	case a.loss < b.loss:
		return -1
	case a.loss > b.loss:
		return 1
	}
	return cmp.Compare(a.trial, b.trial)
}

// rankTransform returns the catastrophe z-scores and the sorted losses:
// z[trial] = Φ⁻¹((rank+½)/n), rank being the trial's position in the
// stable ascending order of agg, and sorted[rank] the loss there. Ties
// (e.g. many zero-loss years) share their rank range by trial order.
//
// Each stream.Partition range is filled and sorted on its own worker;
// the sorted runs are merged pairwise, the lower range winning ties
// because its trials are the lower ones; the z-scores are then written
// in parallel over rank ranges — each trial has one rank, so the
// scattered writes are disjoint.
func rankTransform(ctx context.Context, agg []float64, workers int) (z, sorted []float64, err error) {
	n := len(agg)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	runs := stream.Partition(n, workers)
	keys := make([]rankKey, n)
	// notFinite[w] is the first trial of run w whose loss is NaN or ±Inf
	// (NaN makes < a non-order, ±Inf an enterprise total of ±Inf or NaN),
	// -1 when it has none; kept per run so that the trial named is the
	// lowest one whatever the worker count.
	notFinite := make([]int, len(runs))
	err = stream.ForEachRange(ctx, n, workers, func(_ context.Context, r stream.Range, w int) error {
		run := keys[r.Lo:r.Hi]
		first := -1
		for i := range run {
			trial := r.Lo + i
			loss := agg[trial]
			if first < 0 && (math.IsNaN(loss) || math.IsInf(loss, 0)) {
				first = trial
			}
			run[i] = rankKey{loss, trial}
		}
		if notFinite[w] = first; first < 0 {
			slices.SortFunc(run, compareRankKeys)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, trial := range notFinite {
		if trial >= 0 {
			return nil, nil, fmt.Errorf("dfa: catastrophe loss at trial %d is not finite", trial)
		}
	}

	// Merge adjacent runs, level by level, between keys and a scratch
	// copy; an odd run out is carried over as it is.
	var scratch []rankKey
	if len(runs) > 1 {
		scratch = make([]rankKey, n)
	}
	for len(runs) > 1 {
		merged := make([]stream.Range, (len(runs)+1)/2)
		err = stream.ForEach(ctx, len(merged), workers, func(_ context.Context, i int) error {
			lo := runs[2*i]
			if 2*i+1 == len(runs) {
				copy(scratch[lo.Lo:lo.Hi], keys[lo.Lo:lo.Hi])
				merged[i] = lo
				return nil
			}
			hi := runs[2*i+1]
			mergeRankKeys(scratch[lo.Lo:hi.Hi], keys[lo.Lo:lo.Hi], keys[hi.Lo:hi.Hi])
			merged[i] = stream.Range{Lo: lo.Lo, Hi: hi.Hi}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		runs, keys, scratch = merged, scratch, keys
	}

	z = make([]float64, n)
	sorted = make([]float64, n)
	err = stream.ForEachRange(ctx, n, workers, func(_ context.Context, r stream.Range, _ int) error {
		for rank := r.Lo; rank < r.Hi; rank++ {
			key := keys[rank]
			sorted[rank] = key.loss
			z[key.trial] = mathx.StdNormalQuantile((float64(rank) + 0.5) / float64(n))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return z, sorted, nil
}

// mergeRankKeys merges two sorted runs into dst, len(dst) = len(a) +
// len(b). Every trial of a precedes every trial of b, so taking from a
// on equal losses is the (loss, trial) order.
func mergeRankKeys(dst, a, b []rankKey) {
	i, j := 0, 0
	for k := range dst {
		if j == len(b) || (i < len(a) && a[i].loss <= b[j].loss) {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
	}
}

// Run executes the integration over the cat table's trials.
func (ig *Integrator) Run(ctx context.Context, cat *ylt.Table, cfg Config) (*Result, error) {
	if cat == nil || cat.NumTrials() == 0 {
		return nil, errors.New("dfa: missing catastrophe YLT")
	}
	if len(ig.Sources) == 0 {
		return nil, errors.New("dfa: no sources to integrate")
	}
	k := len(ig.Sources) + 1 // coordinate 0 is the cat book

	corr := cfg.Corr
	if corr == nil {
		var err error
		corr, err = mathx.CorrelationMatrix(k, cfg.Rho)
		if err != nil {
			return nil, fmt.Errorf("dfa: correlation: %w", err)
		}
	} else if err := checkCorr(corr, k); err != nil {
		return nil, err
	}
	chol, jitter, err := mathx.CholeskyJittered(corr, 12)
	if err != nil {
		return nil, fmt.Errorf("dfa: correlation not factorizable (jitter reached %g): %w", jitter, err)
	}

	n := cat.NumTrials()

	// Rank-transform the cat losses into standard normals: the copula
	// conditions every financial source on how bad the catastrophe
	// year was.
	zCat, catSorted, err := rankTransform(ctx, cat.Agg, cfg.Workers)
	if err != nil {
		return nil, err
	}

	res := &Result{Cat: cat, CatSorted: catSorted}
	if cfg.KeepPerSource {
		res.PerSource = make([]*ylt.Table, len(ig.Sources))
		for i, s := range ig.Sources {
			res.PerSource[i] = ylt.NewAggOnly(s.Name(), n)
		}
	}
	var enterprise *ylt.Table
	if cat.HasOccurrence() {
		enterprise = ylt.New("enterprise", n)
		copy(enterprise.OccMax, cat.OccMax)
	} else {
		enterprise = ylt.NewAggOnly("enterprise", n)
	}
	res.Enterprise = enterprise

	// The run's constants are evaluated once, here, not once per trial.
	sources := make([]runSource, len(ig.Sources))
	for i, s := range ig.Sources {
		sources[i] = planSource(s)
	}

	perSource := res.PerSource // nil unless asked for
	err = stream.ForEachRange(ctx, n, cfg.Workers, func(ctx context.Context, r stream.Range, _ int) error {
		w := make([]float64, k)
		z := make([]float64, k)
		// One stream per worker, re-seeded per trial: the draws of trial
		// t are those of rng.NewStream(cfg.Seed, t) whatever the range
		// it falls in.
		var st rng.Stream
		for trial := r.Lo; trial < r.Hi; trial++ {
			if trial%4096 == 0 {
				select {
				case <-ctx.Done():
					return ctx.Err()
				default:
				}
			}
			st.Reseed(cfg.Seed, uint64(trial))
			// Conditional Gaussian copula: coordinate 0 is pinned to
			// the cat year's z-score (L[0][0] == 1 for a correlation
			// matrix, so w[0] = z[0]).
			w[0] = zCat[trial]
			for i := 1; i < k; i++ {
				w[i] = drawNormal(&st)
			}
			chol.LowerMulVec(w, z)
			total := cat.Agg[trial]
			for i, src := range sources {
				loss := src.loss(z[i+1], &st)
				if perSource != nil {
					perSource[i].Agg[trial] = loss
				}
				total += loss
			}
			enterprise.Agg[trial] = total
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
