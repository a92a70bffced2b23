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
// A run ranks the catastrophe losses once (rankTransform: an MSD radix
// over 4-byte trial indices with one gather per trial, which keeps each
// trial's rank and nothing else); it evaluates each standard source's
// constants once per run, not once per trial, and hands it its copula
// normal without a round trip through Φ and Φ⁻¹ (MarketCycle and
// Counterparty decide their thresholds in normal space, with an exact
// fallback near them); every normal it draws is a ziggurat normal; and
// it carries only the tables its caller reports.
// The enterprise table shares the catastrophe table's occurrence column.
// The reports select their order statistics in the tables themselves
// (package metrics), so the stage hands them nothing else.
package dfa

import (
	"context"
	"errors"
	"fmt"
	"math"

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
// Run calls Loss for custom sources, and for a MarketCycle only where x
// is within a guard band of its thresholds (or its probabilities are
// too close to 0 or 1 to plan). The other standard sources read x
// itself: their Loss(u, aux) is the same formula at x = Φ⁻¹(u), for
// callers that hold a uniform.
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
	ret := s.MeanReturn - float64(s.Volatility*x)
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
	shift := s.MeanShift + float64(s.Vol*x)
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
	return p.reserves * math.Expm1(float64(x*p.sigma)+p.mu)
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
	p := s.plan()
	return p.lossZ(mathx.StdNormalQuantile(u), aux)
}

// counterpartyPlan is a Counterparty with the Vasicek constants
// evaluated: Φ⁻¹(PD), √ρ and √(1−ρ). Run's plan also holds noDefault
// (tabulate); Loss's does not.
type counterpartyPlan struct {
	Counterparty
	qPD, sqrtRho, sqrtOneMinusRho float64
	// noDefault[c] is a lower bound on the f(0) = (1−p(x))ᴺ that
	// Binomial computes for any x in cell c of the table window, or 0
	// where the cell is not tabled. nil when the plan has no table.
	noDefault []float64
}

// The no-default table's window is [tableLo, tableLo + tableCells ·
// tableStep): 1024 cells of 2⁻⁵, every edge exact.
const (
	tableLo    = -16
	tableStep  = 0x1p-5
	tableCells = 1024
	// tableSlack is the bound's relative margin under the f(0) computed
	// at a cell's right edge, and the margin below ½ that p keeps there.
	tableSlack = 0x1p-30
	// tablePDMin is the smallest p a tabled cell's left edge may have:
	// far above where Φ's relative accuracy gives out.
	tablePDMin = 0x1p-900
)

func (s Counterparty) plan() counterpartyPlan {
	rho := mathx.Clamp(s.FactorRho, 0, 0.97)
	return counterpartyPlan{
		Counterparty:    s,
		qPD:             mathx.StdNormalQuantile(s.PD),
		sqrtRho:         math.Sqrt(rho),
		sqrtOneMinusRho: math.Sqrt(1 - rho),
	}
}

// tabulate returns p with its no-default table. A cell is tabled where
// the computed p stays inside (0, ½] at both edges with margin, so that
// for every x in it Binomial(N, p) takes the inversion branch and draws
// exactly one uniform; its bound is the f(0) computed at its right edge
// times (1 − tableSlack). The computed Vasicek argument is monotone in
// x (rounding is monotone), and the true f(0) falls as the argument
// rises, so the bound is below the f(0) computed at any x of the cell
// whenever a computed f(0) is within 2⁻³¹ relative of the true one at
// the computed argument (Φ's few ulps through math.Erfc, amplified at
// most N-fold, and Pow's own). N outside [1, 64] (Binomial's normal
// approximation) and PD outside (0, 1) get no table.
func (p counterpartyPlan) tabulate() counterpartyPlan {
	if p.N < 1 || p.N > 64 || !(p.PD > 0 && p.PD < 1) {
		return p
	}
	p.noDefault = make([]float64, tableCells)
	left := p.pdCond(tableLo)
	for c := range p.noDefault {
		right := p.pdCond(tableLo + float64(float64(c+1)*tableStep))
		if left >= tablePDMin && right <= 0.5*(1-tableSlack) {
			p.noDefault[c] = math.Pow(1-right, float64(p.N)) * (1 - tableSlack)
		}
		left = right
	}
	return p
}

// pdCond is the Vasicek conditional PD given systematic factor x
// (stress when x is large: cat-heavy years impair reinsurers).
func (p *counterpartyPlan) pdCond(x float64) float64 {
	return mathx.StdNormalCDF((p.qPD + float64(p.sqrtRho*x)) / p.sqrtOneMinusRho)
}

// lossZ is Counterparty.Loss at the copula normal x = Φ⁻¹(u). In a
// tabled cell it draws the uniform Binomial's inversion would draw, and
// a uniform under the cell's bound settles "no defaults" without Φ or
// Pow.
func (p *counterpartyPlan) lossZ(x float64, aux *rng.Stream) float64 {
	if p.N <= 0 || p.PD <= 0 {
		return 0
	}
	var defaults int
	if bound := p.noDefaultBound(x); bound > 0 {
		if u := aux.Float64(); u >= bound {
			defaults = rng.BinomialInverse(p.N, p.pdCond(x), u)
		}
	} else {
		defaults = aux.Binomial(p.N, p.pdCond(x))
	}
	return p.Recoverables * float64(defaults) / float64(p.N) * p.LGD
}

// noDefaultBound is the bound of x's cell, 0 where x has none. The
// computed cell is never left of x's true cell (the one subtraction
// rounds monotonically from exact edges), and a cell further right has
// a bound no larger; only an x within rounding of that cell's left edge
// lands there, and tablePDMin keeps its p above 0.
func (p *counterpartyPlan) noDefaultBound(x float64) float64 {
	if p.noDefault == nil || !(x >= tableLo && x < tableLo+tableCells*tableStep) {
		return 0
	}
	return p.noDefault[min(int((x-tableLo)*(1/tableStep)), tableCells-1)]
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

// operationalPlan is an Operational with the event count's Poisson plan
// and the severity's lognormal parameters evaluated. plan panics on a
// non-finite Freq or one above rng.MaxPoissonRate, as rng.NewPoisson
// does; Run refuses both first.
type operationalPlan struct {
	count           rng.Poisson
	beta, mu, sigma float64
}

func (s Operational) plan() operationalPlan {
	mu, sigma := mathx.LogNormalMeanStd(s.SevMean, s.SevMean*s.SevCoV)
	return operationalPlan{count: rng.NewPoisson(s.Freq), beta: s.StressBeta, mu: mu, sigma: sigma}
}

// lossZ is Operational.Loss at the copula normal x = Φ⁻¹(u).
func (p operationalPlan) lossZ(x float64, aux *rng.Stream) float64 {
	n := p.count.Draw(aux)
	if n == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += math.Exp(p.mu + float64(p.sigma*drawNormal(aux)))
	}
	stress := math.Exp(float64(p.beta*x) - float64(p.beta*p.beta/2))
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
	// High severity = soft market = inadequate premium.
	return s.margin(u > 1-s.SoftProb, u < s.HardProb)
}

// margin is the loss of a soft, a hard or (neither) a normal year; soft
// wins when both hold.
func (s MarketCycle) margin(soft, hard bool) float64 {
	switch {
	case soft:
		return s.Premium * s.SoftMargin
	case hard:
		return -s.Premium * s.HardMargin
	}
	return 0
}

// marketCyclePlan is a MarketCycle that decides in normal space: x
// against Φ⁻¹(1−SoftProb) and Φ⁻¹(HardProb), each widened to a guard
// band of ±normalMargin inside which it computes u = Φ(x) and calls
// Loss. Outside the bands the computed u is on the same side of the
// threshold as x: both probabilities lie in [2⁻¹⁰, 1−2⁻¹⁰], where the
// normal density at the threshold is at least 0.003, so Φ moves by more
// than 2.8·10⁻⁹ across the margin, far above the error of a Φ computed
// through math.Erfc (2⁻⁴⁰ relative would do) and of the rational Φ⁻¹.
type marketCyclePlan struct {
	MarketCycle
	softLo, softHi, hardLo, hardHi float64
}

// normalMargin is the half-width of marketCyclePlan's guard bands.
const normalMargin = 0x1p-20

// plan returns s's normal-space form, or false when a probability is
// outside [2⁻¹⁰, 1−2⁻¹⁰] (NaN included).
func (s MarketCycle) plan() (marketCyclePlan, bool) {
	const lo, hi = 0x1p-10, 1 - 0x1p-10
	if !(s.SoftProb >= lo && s.SoftProb <= hi && s.HardProb >= lo && s.HardProb <= hi) {
		return marketCyclePlan{}, false
	}
	soft := mathx.StdNormalQuantile(1 - s.SoftProb)
	hard := mathx.StdNormalQuantile(s.HardProb)
	return marketCyclePlan{s, soft - normalMargin, soft + normalMargin, hard - normalMargin, hard + normalMargin}, true
}

// lossZ is MarketCycle.Loss at u = Φ(x), clamped as Run clamps it.
func (p *marketCyclePlan) lossZ(x float64, aux *rng.Stream) float64 {
	switch {
	case x > p.softHi:
		return p.margin(true, false)
	case x < p.softLo && (x < p.hardLo || x > p.hardHi):
		return p.margin(false, x < p.hardLo)
	}
	return p.Loss(sourceUniform(x), aux)
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
// compares x with its thresholds in normal space. Custom sources are
// called through the interface.
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
		p := s.plan().tabulate()
		return runSource{lossZ: p.lossZ}
	case Operational:
		return runSource{lossZ: s.plan().lossZ}
	case MarketCycle:
		if p, ok := s.plan(); ok {
			return runSource{lossZ: p.lossZ}
		}
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
	// book is coordinate 0).
	Rho float64
	// KeepPerSource makes Run fill Result.PerSource: one full-length
	// table per source, three fifths of the stage's bytes with the six
	// standard sources. The pipeline reads only the enterprise total and
	// leaves it off; experiment E9 (`benchtables -e 9`) reports per
	// source and sets it.
	KeepPerSource bool
}

// Result is the output of an integration. Its tables are read-only once
// returned: Enterprise shares a column with Cat, and the reports read
// both in place.
type Result struct {
	// Cat is the input catastrophe YLT (coordinate 0).
	Cat *ylt.Table
	// PerSource holds one YLT per non-cat source, in input order. It is
	// nil unless Config.KeepPerSource was set.
	PerSource []*ylt.Table
	// Enterprise is the per-trial sum of cat and all sources. When Cat
	// has occurrence detail, Enterprise.OccMax is Cat.OccMax itself, the
	// same slice (no source has occurrences), so that the two reports
	// select in one occurrence column (metrics.NewViewSorted).
	Enterprise *ylt.Table
	// TotalBytes is the summed serialized size of the tables the run
	// holds — Cat, Enterprise and, with KeepPerSource, every per-source
	// table — the stage-3 data-volume accounting for experiment E9. It
	// counts each table's columns as its serialized form holds them, so
	// the occurrence column Enterprise shares with Cat counts twice.
	TotalBytes int64
}

// Integrator couples a catastrophe YLT with parametric risk sources.
type Integrator struct {
	Sources []Source
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

	corr, err := mathx.CorrelationMatrix(k, cfg.Rho)
	if err != nil {
		return nil, fmt.Errorf("dfa: correlation: %w", err)
	}
	chol, jitter, err := mathx.CholeskyJittered(corr, 12)
	if err != nil {
		return nil, fmt.Errorf("dfa: correlation not factorizable (jitter reached %g): %w", jitter, err)
	}

	// The run's constants are evaluated once, here, not once per trial.
	sources := make([]runSource, len(ig.Sources))
	for i, s := range ig.Sources {
		if op, ok := s.(Operational); ok {
			switch {
			case math.IsNaN(op.Freq) || math.IsInf(op.Freq, 0):
				return nil, fmt.Errorf("dfa: source %d (%s) has frequency %g, which is not finite", i, s.Name(), op.Freq)
			case op.Freq > rng.MaxPoissonRate:
				return nil, fmt.Errorf("dfa: source %d (%s) has frequency %g, above the largest Poisson rate %g", i, s.Name(), op.Freq, float64(rng.MaxPoissonRate))
			}
		}
		sources[i] = planSource(s)
	}

	n := cat.NumTrials()

	// Rank the cat losses: the copula conditions every financial source
	// on how bad the catastrophe year was.
	rankOf, err := rankTransform(ctx, cat.Agg, cfg.Workers)
	if err != nil {
		return nil, err
	}

	res := &Result{Cat: cat}
	if cfg.KeepPerSource {
		res.PerSource = make([]*ylt.Table, len(ig.Sources))
		for i, s := range ig.Sources {
			res.PerSource[i] = ylt.NewAggOnly(s.Name(), n)
		}
	}
	enterprise := ylt.NewAggOnly("enterprise", n)
	enterprise.OccMax = cat.OccMax // nil when Cat has no occurrence detail
	res.Enterprise = enterprise

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
			// the cat year's z-score Φ⁻¹((rank+½)/n) (L[0][0] == 1 for a
			// correlation matrix, so w[0] = z[0]).
			w[0] = mathx.StdNormalQuantile((float64(rankOf[trial]) + 0.5) / float64(n))
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
