// Package hazard implements the first of the three catastrophe-model
// modules the paper names (§II): quantifying "the hazard intensity at
// exposure sites". Given an event's footprint anchor and severity, it
// returns a normalized intensity at any location.
//
// The functional forms are simplified versions of the published model
// families (ground-motion attenuation for earthquake, radial wind
// decay for hurricane, depth decay for flood); vendor-grade models are
// proprietary, and the pipeline only needs intensities with the right
// spatial structure: monotone decay with distance, scale set by event
// severity.
//
// IntensityAt evaluates one (event, site) pair. Footprint evaluates one
// event against a prepared table of sites and returns only the sites
// that feel it, culling the rest without computing a distance; the
// stage-1 engine's cost is proportional to what Footprint returns.
package hazard

import (
	"math"

	"repro/internal/catalog"
)

// Intensity is a normalized local hazard measure in [0, 10]. The
// vulnerability module maps it to damage; 0 means unfelt, 10 is the
// practical ceiling (MMI-like for quake, saturated wind/flood damage
// regimes otherwise).
type Intensity float64

// EarthRadiusKm is the mean Earth radius used by the haversine metric.
const EarthRadiusKm = 6371.0

const deg = math.Pi / 180 // radians per degree

// DistanceKm returns the great-circle distance between two points.
func DistanceKm(lat1, lon1, lat2, lon2 float64) float64 {
	dLat := (lat2 - lat1) * deg
	dLon := (lon2 - lon1) * deg
	a := float64(math.Sin(dLat/2)*math.Sin(dLat/2)) +
		float64(math.Cos(lat1*deg)*math.Cos(lat2*deg)*math.Sin(dLon/2)*math.Sin(dLon/2))
	return 2 * EarthRadiusKm * math.Asin(math.Min(1, math.Sqrt(a)))
}

// Model computes local intensities for events. The zero value is a
// usable default model.
type Model struct {
	// MaxRangeFactor times the event radius bounds the footprint;
	// beyond it intensity is exactly 0 so engines can skip sites
	// cheaply. Defaults to 3.
	MaxRangeFactor float64
}

func (m Model) maxRange() float64 {
	if m.MaxRangeFactor <= 0 {
		return 3
	}
	return m.MaxRangeFactor
}

// IntensityAt returns the hazard intensity event ev produces at
// (lat, lon). It is pure and deterministic: all stochasticity in the
// pipeline lives in event occurrence and damage uncertainty, not in
// the physics approximation.
func (m Model) IntensityAt(ev catalog.Event, lat, lon float64) Intensity {
	return intensityAtDistance(ev, DistanceKm(ev.Lat, ev.Lon, lat, lon), ev.RadiusKm*m.maxRange())
}

// intensityAtDistance is the per-peril attenuation formula at d km from
// the event's anchor, with the footprint cutoff cut. IntensityAt and
// Footprint both evaluate it, so the two agree bit for bit.
func intensityAtDistance(ev catalog.Event, d, cut float64) Intensity {
	if d >= cut {
		return 0
	}
	var raw float64
	switch ev.Peril {
	case catalog.Earthquake:
		// Attenuation: intensity grows with magnitude, decays with
		// log-distance (a Gutenberg-style macroseismic relation).
		raw = float64(1.8*ev.Magnitude) - float64(3.2*math.Log(d+8)) + 2.0
	case catalog.Hurricane:
		// Wind decays roughly linearly inside the radius of maximum
		// winds envelope, then with inverse distance outside it.
		v := float64(ev.Magnitude * decay(d, ev.RadiusKm))
		raw = (v - 20) / 6 // 20 m/s threshold of damage, saturate ~80
	case catalog.Flood:
		depth := ev.Magnitude * decay(d, ev.RadiusKm)
		raw = 3 * depth
	case catalog.WinterStorm:
		gust := float64(ev.Magnitude * decay(d, ev.RadiusKm))
		raw = (gust - 15) / 5
	case catalog.Tornado:
		// Tornado tracks are tiny and violent: sharp exponential decay.
		raw = float64(2.2*ev.Magnitude*math.Exp(-d/ev.RadiusKm)) - 0.2
	}
	if raw <= 0 {
		return 0
	}
	if raw > 10 {
		return 10
	}
	return Intensity(raw)
}

// decay is the shared radial decay profile: flat to half the footprint
// radius, then smooth inverse-distance falloff.
func decay(d, radius float64) float64 {
	if radius <= 0 {
		return 0
	}
	half := float64(radius / 2)
	if d <= half {
		return 1
	}
	return half / (d - half + half) // = half/d', normalized to 1 at half
}
