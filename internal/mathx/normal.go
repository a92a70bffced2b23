package mathx

import "math"

// StdNormalCDF returns Φ(x), the standard normal cumulative
// distribution function, computed from the complementary error
// function for numerical stability in both tails.
func StdNormalCDF(x float64) float64 {
	return float64(0.5 * math.Erfc(-x/math.Sqrt2))
}

// mulAdd is a·b + c with the product rounded before the sum. The
// explicit conversion keeps a compiler from fusing the two into one
// multiply-add, as it may on arm64: that would round once, not twice,
// and move bits that an amd64 build computes. Every product that feeds
// a sum or difference in this package and in package dfa is rounded so.
func mulAdd(a, b, c float64) float64 { return float64(a*b) + c }

// Coefficients for Acklam's rational approximation of the inverse
// standard normal CDF. Relative error is ~1.15e-9 before refinement;
// one Halley step below brings it to full double precision.
var (
	acklamA = [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	acklamB = [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	acklamC = [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	acklamD = [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}
)

// StdNormalQuantile returns Φ⁻¹(p), the inverse standard normal CDF.
// It returns -Inf for p <= 0 and +Inf for p >= 1.
func StdNormalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}

	const plow, phigh = 0.02425, 1 - 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = acklamTail(q)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -acklamTail(q)
	default:
		q := p - 0.5
		r := q * q
		num := mulAdd(mulAdd(mulAdd(mulAdd(mulAdd(acklamA[0], r, acklamA[1]), r, acklamA[2]), r, acklamA[3]), r, acklamA[4]), r, acklamA[5])
		den := mulAdd(mulAdd(mulAdd(mulAdd(mulAdd(acklamB[0], r, acklamB[1]), r, acklamB[2]), r, acklamB[3]), r, acklamB[4]), r, 1)
		x = num * q / den
	}

	// One step of Halley's method against the true CDF sharpens the
	// rational approximation to machine precision.
	e := StdNormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+float64(x*u/2))
	return x
}

// acklamTail is the rational approximation of Φ⁻¹(p) in the lower tail,
// at q = √(−2·ln p), in Horner's order; the upper tail is its negation
// at q = √(−2·ln(1−p)).
func acklamTail(q float64) float64 {
	num := mulAdd(mulAdd(mulAdd(mulAdd(mulAdd(acklamC[0], q, acklamC[1]), q, acklamC[2]), q, acklamC[3]), q, acklamC[4]), q, acklamC[5])
	den := mulAdd(mulAdd(mulAdd(mulAdd(acklamD[0], q, acklamD[1]), q, acklamD[2]), q, acklamD[3]), q, 1)
	return num / den
}

// LogNormalMeanStd converts the mean and standard deviation of a
// lognormal variable into the (mu, sigma) parameters of the underlying
// normal. It is the standard parameter conversion used when calibrating
// severity distributions from an ELT's (meanLoss, sigma) columns.
func LogNormalMeanStd(mean, sd float64) (mu, sigma float64) {
	if mean <= 0 {
		return math.Inf(-1), 0
	}
	cv2 := float64((sd / mean) * (sd / mean))
	sigma = math.Sqrt(math.Log(1 + cv2))
	mu = math.Log(mean) - float64(sigma*sigma/2)
	return mu, sigma
}
