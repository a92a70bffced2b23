package rng

import "math"

// Ziggurat primitives under Beta and stage 3 (Marsaglia & Tsang 2000, with
// Doornik's 2005 fix of drawing the layer and the abscissa from
// disjoint bits). A density f is covered by zigLayers horizontal strips
// of equal area V: strip i ≥ 1 is the rectangle [0, x[i]) × [f(x[i]),
// f(x[i+1])), strip 0 is the rectangle [0, R) × [0, f(R)) plus the tail
// beyond R, drawn as a rectangle of the same area with the virtual
// width x[0] = V/f(R). A draw picks a strip uniformly and an abscissa
// uniformly in it; left of x[i+1] the strip lies wholly under f and the
// draw is accepted without evaluating f, which happens ≈ 99 % of the
// time. That makes the method exact, not an approximation: the rest is
// a plain rejection test against f in the wedge, or a tail draw.
//
// Stage 3 draws every normal it needs here too: dfa's copula
// coordinates and operational severities call ZigguratNormal, and so
// does Binomial's large-n approximation, which only dfa reaches.
// StdNormal (polar) and Exponential (inversion) in dist.go are left as
// they are on purpose: stage 1 (catalog magnitudes, exposure jitter)
// calls them, and moving those changes the books every pinned digest
// and the benchmark are taken on. Putting them on these tables is a
// change under DESIGN.md's "Changing the numbers on purpose".

const (
	zigLayers = 256

	// Rightmost strip edges for 256 layers. The strip area follows from
	// R in closed form (zigInit), and x[256] must come out at 0: the
	// tables only close for these two values.
	zigNormR = 3.6541528853610088
	zigExpR  = 7.69711747013104972
)

// zigTable holds one density's strips: x[i] is strip i's right edge
// (x[0] the virtual one, x[1] = R, x[zigLayers] = 0) and f[i] the
// density there (f[0] = 0, f[zigLayers] = 1).
type zigTable struct {
	x [zigLayers + 1]float64
	f [zigLayers + 1]float64
}

var zigNorm, zigExp zigTable

func init() {
	// ∫_R^∞ exp(−x²/2) dx = √(π/2)·erfc(R/√2); ∫_R^∞ exp(−x) dx = exp(−R).
	normTail := math.Sqrt(math.Pi/2) * math.Erfc(zigNormR/math.Sqrt2)
	zigInit(&zigNorm, zigNormR, normTail,
		func(x float64) float64 { return math.Exp(-0.5 * x * x) },
		func(y float64) float64 { return math.Sqrt(-2 * math.Log(y)) })
	zigInit(&zigExp, zigExpR, math.Exp(-zigExpR),
		func(x float64) float64 { return math.Exp(-x) },
		func(y float64) float64 { return -math.Log(y) })
}

// zigInit fills t for the decreasing density f on [0, ∞) with inverse
// finv, rightmost edge r and tail mass tail beyond it. Every strip has
// area v = r·f(r) + tail, so f(x[i+1]) = f(x[i]) + v/x[i].
func zigInit(t *zigTable, r, tail float64, f, finv func(float64) float64) {
	v := r*f(r) + tail
	t.x[0], t.f[0] = v/f(r), 0
	x, y := r, f(r)
	for i := 1; i < zigLayers; i++ {
		t.x[i], t.f[i] = x, y
		y += v / x
		x = finv(y)
	}
	t.x[zigLayers], t.f[zigLayers] = 0, 1
}

// ZigguratNormal returns a standard normal draw. The fast path costs one
// Uint64: the low 8 bits pick the strip, the top 53 a signed abscissa.
// It neither reads nor leaves StdNormal's cached spare.
func (st *Stream) ZigguratNormal() float64 {
	for {
		r := st.Uint64()
		i := r & (zigLayers - 1)
		x := float64(int64(r)>>11) * (zigNorm.x[i] * 0x1p-52)
		if math.Abs(x) < zigNorm.x[i+1] {
			return x
		}
		if i == 0 {
			return st.zigNormalTail(x < 0)
		}
		if zigNorm.f[i]+st.Float64()*(zigNorm.f[i+1]-zigNorm.f[i]) < math.Exp(-0.5*x*x) {
			return x
		}
	}
}

// zigNormalTail draws from the normal tail beyond zigNormR (Marsaglia
// 1964): x exponential with rate R, accepted with probability
// exp(−x²/2).
func (st *Stream) zigNormalTail(neg bool) float64 {
	for {
		x := -math.Log(st.Float64Open()) / zigNormR
		y := -math.Log(st.Float64Open())
		if y+y > x*x {
			if neg {
				return -zigNormR - x
			}
			return zigNormR + x
		}
	}
}

// zigExponential returns an Exponential(1) draw, possibly exactly 0.
// The tail beyond zigExpR is the same distribution shifted, so strip 0
// restarts the draw with zigExpR added.
func (st *Stream) zigExponential() float64 {
	base := 0.0
	for {
		r := st.Uint64()
		i := r & (zigLayers - 1)
		x := float64(r>>11) * (zigExp.x[i] * 0x1p-53)
		if x < zigExp.x[i+1] {
			return base + x
		}
		if i == 0 {
			base += zigExpR
			continue
		}
		if zigExp.f[i]+st.Float64()*(zigExp.f[i+1]-zigExp.f[i]) < math.Exp(-x) {
			return base + x
		}
	}
}
