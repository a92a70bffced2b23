package rng

import "math"

// Normal returns a draw from Normal(mu, sigma) using the Marsaglia
// polar method with spare caching.
func (st *Stream) Normal(mu, sigma float64) float64 {
	return mu + sigma*st.StdNormal()
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
	boost := 1.0
	if shape < 1 {
		boost = math.Exp(-st.zigExponential() / shape)
		shape++
	}
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
			return d * v * boost
		}
	}
}

// maxDirectPoissonLambda bounds the multiplication method; above it
// Poisson draws are composed from chunks, keeping worst-case work
// O(lambda) with small constants and no tail-accuracy loss.
const maxDirectPoissonLambda = 30

// Poisson returns a draw from Poisson(lambda). lambda <= 0 returns 0.
//
// Event-occurrence sampling (how many catastrophes strike in a trial
// year) uses this; typical lambdas are single digits, where Knuth's
// multiplication method is both exact and fast. Large lambdas decompose
// as sums of independent Poissons.
func (st *Stream) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	n := 0
	for lambda > maxDirectPoissonLambda {
		n += st.poissonDirect(maxDirectPoissonLambda)
		lambda -= maxDirectPoissonLambda
	}
	return n + st.poissonDirect(lambda)
}

func (st *Stream) poissonDirect(lambda float64) int {
	l := math.Exp(-lambda)
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

// binomialInvert draws Binomial(n, p), 0 < p <= ½, by sequential search:
// one uniform walks the pmf from f(0) = qⁿ through the recurrence
// f(k+1) = f(k) · (n−k)/(k+1) · p/q. Rounding that leaves u above the
// whole mass ends the walk at n.
func (st *Stream) binomialInvert(n int, p float64) int {
	q := 1 - p
	r := p / q
	f := math.Pow(q, float64(n))
	u := st.Float64()
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
			return n - st.binomialInvert(n, 1-p)
		}
		return st.binomialInvert(n, p)
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
