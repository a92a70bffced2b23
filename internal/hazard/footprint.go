package hazard

import (
	"math"

	"repro/internal/catalog"
)

// Sites is a set of locations prepared once for Footprint: the
// coordinates DistanceKm needs, plus each location's unit vector so
// that a site far from an event is rejected by one dot product instead
// of a great-circle distance.
type Sites struct {
	lat, lon []float64
	x, y, z  []float64
}

// NewSites prepares n sites; coord returns the coordinates of site i
// in degrees.
func NewSites(n int, coord func(i int) (lat, lon float64)) *Sites {
	s := &Sites{
		lat: make([]float64, n), lon: make([]float64, n),
		x: make([]float64, n), y: make([]float64, n), z: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		lat, lon := coord(i)
		s.lat[i], s.lon[i] = lat, lon
		s.x[i], s.y[i], s.z[i] = unitVector(lat, lon)
	}
	return s
}

// unitVector returns the point's direction from the Earth's centre.
// Anything that is not a geographic coordinate (NaN, ±Inf, |lat| > 90,
// |lon| > 360) gets a NaN vector: every comparison with its dot
// product is false, so Footprint never culls it and the exact path
// decides. Inside that range the rounding error of a dot product of
// two such vectors is below 1e-14, which cullMargin relies on.
func unitVector(lat, lon float64) (x, y, z float64) {
	if !(math.Abs(lat) <= 90 && math.Abs(lon) <= 360) {
		nan := math.NaN()
		return nan, nan, nan
	}
	sinLat, cosLat := math.Sincos(lat * deg)
	sinLon, cosLon := math.Sincos(lon * deg)
	return cosLat * cosLon, cosLat * sinLon, sinLat
}

// cullMargin is subtracted from the cosine of the felt radius before
// sites are compared against it. The haversine in DistanceKm and the
// dot product of two unit vectors are the same quantity, cos θ = 1 − 2a,
// each computed to within 1e-14 for geographic coordinates; a margin a
// hundred times that means a site is culled only when DistanceKm would
// put it beyond the felt radius too. At a 100 km radius the margin
// admits 0.4 mm of extra ring, so it costs nothing.
const cullMargin = 1e-12

// FeltRadiusKm returns a distance in km at and beyond which IntensityAt
// is exactly 0 for ev at any site with finite coordinates: the smaller
// of the footprint cutoff and the distance at which the peril's formula
// falls to zero. A negative radius means no such site feels the event;
// +Inf means no bound could be derived (non-finite event parameters).
func (m Model) FeltRadiusKm(ev catalog.Event) float64 {
	mag, radius := ev.Magnitude, ev.RadiusKm
	cut := radius * m.maxRange()
	if !finite(mag) || !finite(radius) || !finite(cut) {
		return math.Inf(1)
	}
	// zero is where intensityAtDistance's raw value crosses 0; the
	// formulas all decrease with distance, so it stays ≤ 0 beyond.
	var zero float64
	switch ev.Peril {
	case catalog.Earthquake:
		zero = math.Exp((float64(1.8*mag)+2.0)/3.2) - 8
	case catalog.Hurricane:
		zero = mag * radius / 40 // mag·(radius/2)/d = 20
	case catalog.Flood:
		return cut // any depth is felt: only the cutoff bounds it
	case catalog.WinterStorm:
		zero = mag * radius / 30 // mag·(radius/2)/d = 15
	case catalog.Tornado:
		zero = radius * math.Log(11*mag) // 2.2·mag·exp(−d/radius) = 0.2
	default:
		return -1 // unknown peril: raw stays 0
	}
	// The formulas are evaluated in floating point, so just beyond the
	// exact crossing raw can still round to a positive ulp. Pad the
	// crossing until the exact value is below −1e-10, orders of
	// magnitude more than that rounding. A crossing that is not a
	// number (log of a non-positive magnitude) leaves the cutoff.
	zero += float64(1e-9*(math.Abs(zero)+math.Abs(radius))) + 1e-6
	if zero < cut {
		return zero
	}
	return cut
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Felt is one entry of a footprint: a site and the intensity the event
// produces there.
type Felt struct {
	Site      int
	Intensity Intensity
}

// Footprint appends to out[:0] the sites at which ev's intensity is
// not ≤ 0, in ascending site order, each with exactly the value
// IntensityAt returns there (a NaN intensity from non-finite input is
// kept, as a caller that skips on `<= 0` keeps it). Callers iterate
// events outermost — the access pattern the paper's stage 1 prescribes
// — and reuse out across events.
//
// Sites beyond FeltRadiusKm are rejected by a dot product against the
// cosine of that radius; the rest go through DistanceKm and the same
// formula as IntensityAt. The cull is conservative: see cullMargin.
func (m Model) Footprint(ev catalog.Event, s *Sites, out []Felt) []Felt {
	out = out[:0]
	// A site is culled when its dot product with the event's unit
	// vector is below minDot. −Inf culls nothing, +Inf culls every site
	// whose dot product is a number.
	minDot := math.Inf(-1)
	if r := m.FeltRadiusKm(ev); r < 0 {
		minDot = math.Inf(1)
	} else if theta := r / EarthRadiusKm; theta < math.Pi {
		minDot = math.Cos(theta) - cullMargin
	}
	ex, ey, ez := unitVector(ev.Lat, ev.Lon)
	cut := ev.RadiusKm * m.maxRange()
	x, y, z := s.x, s.y[:len(s.x)], s.z[:len(s.x)]
	for i := range x {
		if float64(x[i]*ex)+float64(y[i]*ey)+float64(z[i]*ez) < minDot {
			continue
		}
		inten := intensityAtDistance(ev, DistanceKm(ev.Lat, ev.Lon, s.lat[i], s.lon[i]), cut)
		if inten <= 0 {
			continue
		}
		out = append(out, Felt{Site: i, Intensity: inten})
	}
	return out
}
