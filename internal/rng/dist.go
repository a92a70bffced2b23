package rng

import "math"

// Normal returns a draw from Normal(mu, sigma) using the Marsaglia
// polar method with spare caching.
func (st *Stream) Normal(mu, sigma float64) float64 {
	return mu + float64(sigma*st.StdNormal())
}

// StdNormal returns a standard normal draw.
func (st *Stream) StdNormal() float64 {
	if st.hasSpare {
		st.hasSpare = false
		return st.spare
	}
	for {
		u := 2*st.Float64() - 1
		v := 2*st.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		st.spare = v * f
		st.hasSpare = true
		return u * f
	}
}

// Exponential returns a draw from Exponential(rate), mean 1/rate.
func (st *Stream) Exponential(rate float64) float64 {
	return -math.Log(st.Float64Open()) / rate
}

// LogNormal returns a draw from LogNormal(mu, sigma), where mu and
// sigma parameterize the underlying normal.
func (st *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(st.Normal(mu, sigma))
}

// Gamma returns a draw from Gamma(shape, scale) with mean shape·scale,
// using Marsaglia-Tsang squeeze for shape >= 1 and the boost trick
// U^(1/shape)·Gamma(shape+1) below 1.
func (st *Stream) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		return 0
	}
	if shape < 1 {
		u := st.Float64Open()
		return st.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := st.StdNormal()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := st.Float64Open()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Beta returns a draw from Beta(a, b) via the Gamma ratio x/(x+y). It
// is the secondary-uncertainty draw of stage 2, once per sampled
// occurrence loss, so its gammas run on the ziggurat primitives
// (ziggurat.go), not on StdNormal and math.Pow as Gamma does.
func (st *Stream) Beta(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	x := st.betaGamma(a)
	y := st.betaGamma(b)
	if x+y == 0 {
		return 0
	}
	return x / (x + y)
}

// betaGamma returns a Gamma(shape, 1) draw by the same Marsaglia-Tsang
// squeeze as Gamma, over a ziggurat normal. Below shape 1 the boost
// U^(1/shape) is exp(−E/shape) with E = −log U drawn directly as a
// ziggurat exponential: one Exp, no Log and no Pow. A tiny shape
// underflows the boost to 0, never to NaN.
func (st *Stream) betaGamma(shape float64) float64 {
	if shape < 1 {
		z := st.boostExponent(shape)
		return st.mtGamma(shape+1) * math.Exp(z)
	}
	return st.mtGamma(shape)
}

// boostExponent draws the exponent z = −E/shape ≤ 0 of the boost
// e^z = U^(1/shape) that turns a Gamma(shape+1) draw into a
// Gamma(shape) one. It is drawn before the gamma it scales.
func (st *Stream) boostExponent(shape float64) float64 {
	return -st.zigExponential() / shape
}

// mtGamma returns a Gamma(shape, 1) draw for shape >= 1: the
// Marsaglia-Tsang d·v, accepted by the squeeze or the exact test.
func (st *Stream) mtGamma(shape float64) float64 {
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := st.ZigguratNormal()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := st.Float64Open()
		x2 := x * x
		if u < 1-0.0331*x2*x2 || math.Log(u) < 0.5*x2+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// skipMargin is the relative margin δ of ScaledBetaAbove's skip test.
const skipMargin = 0x1p-40

// ScaledBetaAbove returns scale·Beta(a, b), bit for bit, and true — or
// false, with the value unevaluated, when a cheap upper bound proves it
// is at most floor. A stage-2 kernel passes the lowest occurrence
// retention of the entry's contract as floor: a loss at or below it
// recovers 0 through every layer, so no output reads it. Either way
// the stream advances exactly as Beta advances it — E, the shape a+1
// gamma, then the b gamma (E only when a < 1) — so the draws after it
// do not depend on the answer.
//
// What is skipped is the boost's math.Exp and the final divide. With
// g the shape-(a+1) gamma and z = −E/a ≤ 0, Beta's x is fl(g·Exp(z)).
// The bound replaces Exp(z) by 2^k, k = trunc(z·log₂e·(1−2⁻³⁰))
// floored at −1021, built from exponent bits (expBound). Soundness, in
// four steps, with u = 2⁻⁵³ and δ = 2⁻⁴⁰:
//
//  1. 2^k ≥ Exp(z). The rounded product w = fl(z·c), c = fl(log₂e·
//     (1−2⁻³⁰)), has |w| ≤ |z|·log₂e·(1−2⁻³⁰)(1+u)² < |z|·log₂e, and
//     trunc and the floor only raise it, so k ≥ w ≥ z·log₂e and
//     2^k ≥ e^z. Exp is faithful (error below 1 ulp), so it returns a
//     float no greater than the float 2^k. Off k = 0 the factor
//     (1−2⁻³⁰) leaves 2^k at least 2^(2⁻³⁰) above e^z, a margin of
//     ~10⁻⁹ for an Exp that is a few ulp off; at k = 0 it needs only
//     Exp(z) ≤ 1 for z ≤ 0.
//  2. Monotone rounding carries it through g·2^k: x = fl(g·Exp(z)) ≤
//     fl(g·2^k) = xh. For a ≥ 1 there is no boost: z = 0, 2^k = 1 and
//     xh = x = g.
//  3. The test. With y the b gamma, L = fl(fl(xh·scale)·(1+δ)) and
//     R = fl(fl(fl(xh+y)·floor)·(1−δ)), the skip needs L ≤ R,
//     L ≥ 2⁻¹⁰²¹, R finite and scale ≤ floor·2¹⁰⁰⁰. The middle two keep
//     every product of L and R a normal float (R ≥ L), so each carries
//     relative error ≤ u, and L ≤ R gives
//     ρ = scale·xh/(xh+y) ≤ floor·(1−δ)(1+u)³/((1+δ)(1−u)²) < floor·(1−2⁻⁴⁰).
//  4. The value. x/(x+y) ≤ xh/(xh+y) since x ≤ xh and y ≥ 0; fl(x+y) ≥
//     (x+y)(1−u); the divide rounds up by at most a factor (1+u) or, in
//     the subnormal range, by 2⁻¹⁰⁷⁵; so scale·fl(x/fl(x+y)) ≤
//     ρ(1+3u) + scale·2⁻¹⁰⁷⁵ < floor(1−2⁻⁴⁰)(1+3u) + floor·2⁻⁷⁵ < floor
//     (the last step by scale ≤ floor·2¹⁰⁰⁰). floor is a float, so the
//     rounded product fl(scale·…) — the value — is at most floor too;
//     x+y == 0 gives 0.
//
// Every step only needs rounding errors at most u per operation, so a
// compiler that fuses a multiply and an add (arm64 FMA) keeps it: a
// fused operation rounds once instead of twice. NaN in any input fails
// one of the comparisons, and the value is computed.
func (st *Stream) ScaledBetaAbove(a, b, scale, floor float64) (float64, bool) {
	if a <= 0 || b <= 0 {
		return scale * 0, true
	}
	var z float64
	shape := a
	if a < 1 {
		z = st.boostExponent(a)
		shape++
	}
	g := st.mtGamma(shape)
	y := st.betaGamma(b)
	xh := g * expBound(z)
	lhs := xh * scale * (1 + skipMargin)
	rhs := (xh + y) * floor * (1 - skipMargin)
	if lhs <= rhs && lhs >= 0x1p-1021 && rhs <= math.MaxFloat64 && scale <= floor*0x1p1000 {
		return 0, false
	}
	x := g
	if a < 1 {
		x = g * math.Exp(z)
	}
	if x+y == 0 {
		return scale * 0, true
	}
	return scale * (x / (x + y)), true
}

// expBound returns 2^k ≥ math.Exp(z) for z ≤ 0, with k =
// trunc(z·log₂e·(1−2⁻³⁰)) floored at −1021 (ScaledBetaAbove, step 1),
// assembled from its exponent bits.
func expBound(z float64) float64 {
	w := z * (math.Log2E * (1 - 0x1p-30))
	k := int64(-1021)
	if w > -1021 {
		k = int64(w)
	}
	return math.Float64frombits(uint64(k+1023) << 52)
}

// maxDirectPoissonLambda bounds the multiplication method; above it
// Poisson draws are composed from chunks, keeping worst-case work
// O(lambda) with small constants and no tail-accuracy loss.
const maxDirectPoissonLambda = 30

// MaxPoissonRate is the largest rate NewPoisson takes: a draw at it
// walks 33 334 chunks, about 10⁶ uniforms (4.5 ms on a 2.1 GHz Xeon),
// and building its sampler takes 28 µs. Far above it the chunk count
// stops being a cost and becomes a hang: past ≈ 2.9·10¹⁷, λ − 30 rounds
// back to λ and the constructor never returns. A year of a million
// catastrophe or operational events is beyond any book this repository
// models.
const MaxPoissonRate = 1e6

// Poisson returns a draw from Poisson(lambda). lambda <= 0 returns 0.
// It is NewPoisson(lambda).Draw(st), and panics where NewPoisson does.
//
// Event-occurrence sampling (how many catastrophes strike in a trial
// year) uses this; typical lambdas are single digits, where Knuth's
// multiplication method is both exact and fast. Large lambdas decompose
// as sums of independent Poissons.
func (st *Stream) Poisson(lambda float64) int { return NewPoisson(lambda).Draw(st) }

// Poisson is a fixed-rate Poisson sampler: the thresholds Knuth's
// method compares against, evaluated once for a rate that many draws
// share. A rate above maxDirectPoissonLambda is split into chunks of
// maxDirectPoissonLambda by repeated subtraction, and what is left, rest
// in (0, maxDirectPoissonLambda], is drawn last. The zero value is the
// rate 0: it draws nothing and returns 0.
type Poisson struct {
	chunks  int     // whole chunks of maxDirectPoissonLambda
	expRest float64 // exp(−rest) ≥ expChunk > 0; 0 for a rate ≤ 0
}

// expChunk is the threshold of one chunk, exp(−maxDirectPoissonLambda).
var expChunk = math.Exp(-maxDirectPoissonLambda)

// NewPoisson returns the sampler for Poisson(lambda); lambda <= 0 draws
// 0. It panics if lambda is NaN or ±Inf, which has no draw (the chunk
// loop of +Inf never ends, and no product of uniforms falls to
// exp(−NaN)), and if lambda is above MaxPoissonRate. Callers that take
// a rate from their input refuse it first, with an error.
func NewPoisson(lambda float64) Poisson {
	if math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		panic("rng: NewPoisson with non-finite lambda")
	}
	if lambda > MaxPoissonRate {
		panic("rng: NewPoisson with lambda above MaxPoissonRate")
	}
	if lambda <= 0 {
		return Poisson{}
	}
	var p Poisson
	for lambda > maxDirectPoissonLambda {
		p.chunks++
		lambda -= maxDirectPoissonLambda
	}
	p.expRest = math.Exp(-lambda)
	return p
}

// Draw returns a draw from the sampler's Poisson distribution.
func (p Poisson) Draw(st *Stream) int {
	if p.expRest == 0 {
		return 0
	}
	n := 0
	for i := 0; i < p.chunks; i++ {
		n += st.poissonDirect(expChunk)
	}
	return n + st.poissonDirect(p.expRest)
}

// poissonDirect is Knuth's multiplication method: the count of uniforms
// whose running product stays above l = exp(−lambda).
func (st *Stream) poissonDirect(l float64) int {
	k := 0
	p := 1.0
	for {
		p *= st.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Pareto returns a draw from a Pareto distribution with minimum xm and
// tail index alpha — the canonical heavy-tailed severity model for
// large catastrophe losses.
func (st *Stream) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		return 0
	}
	return xm / math.Pow(st.Float64Open(), 1/alpha)
}

// TruncPareto returns a Pareto(xm, alpha) draw truncated above at hi
// by inverse-CDF sampling of the truncated distribution.
func (st *Stream) TruncPareto(xm, alpha, hi float64) float64 {
	if hi <= xm {
		return xm
	}
	fHi := 1 - math.Pow(xm/hi, alpha)
	u := st.Float64() * fHi
	return xm / math.Pow(1-u, 1/alpha)
}

// BinomialInverse is the Binomial(n, p) count, 0 < p <= ½, that the
// uniform u in [0, 1) selects by sequential search: u walks the pmf from
// f(0) = qⁿ through the recurrence f(k+1) = f(k) · (n−k)/(k+1) · p/q, so
// the count is 0 exactly when u < f(0). Rounding that leaves u above the
// whole mass ends the walk at n. Binomial draws u itself; a caller that
// has drawn the uniform Binomial would draw, and settled the zero count
// from it, finishes the draw here.
func BinomialInverse(n int, p, u float64) int {
	q := 1 - p
	r := p / q
	f := math.Pow(q, float64(n))
	k := 0
	for u >= f && k < n {
		u -= f
		f *= r * float64(n-k) / float64(k+1)
		k++
	}
	return k
}

// Binomial returns a draw from Binomial(n, p): exactly, by inverting one
// uniform, for n <= 64, and by a rounded normal approximation for larger
// n (used only where exactness is not load-bearing, e.g. counterparty
// default counts among hundreds of counterparties).
func (st *Stream) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n <= 64 {
		// Count the rarer outcome, so that f(0) = qⁿ ≥ 2⁻⁶⁴ never
		// underflows.
		if p > 0.5 {
			return n - BinomialInverse(n, 1-p, st.Float64())
		}
		return BinomialInverse(n, p, st.Float64())
	}
	mean := float64(n) * p
	sd := math.Sqrt(mean * (1 - p))
	k := int(math.Round(mean + sd*st.ZigguratNormal()))
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}
