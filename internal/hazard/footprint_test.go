package hazard

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/catalog"
)

// destination returns the point distKm from (lat, lon) along bearing
// (radians), so tests can place sites at a chosen distance.
func destination(lat, lon, bearing, distKm float64) (float64, float64) {
	phi, delta := lat*deg, distKm/EarthRadiusKm
	sinPhi2 := math.Sin(phi)*math.Cos(delta) + math.Cos(phi)*math.Sin(delta)*math.Cos(bearing)
	phi2 := math.Asin(math.Max(-1, math.Min(1, sinPhi2)))
	lam2 := lon*deg + math.Atan2(math.Sin(bearing)*math.Sin(delta)*math.Cos(phi), math.Cos(delta)-math.Sin(phi)*sinPhi2)
	lon2 := math.Mod(lam2/deg+540, 360) - 180
	return phi2 / deg, lon2
}

// randomEvent draws an event anywhere on the globe — poles and
// antimeridian included — with severities from the catalogue's ranges
// widened to the degenerate cases (unfelt magnitudes, radius ≤ 0) and,
// rarely, non-finite parameters or an unknown peril.
func randomEvent(r *rand.Rand) catalog.Event {
	ev := catalog.Event{
		ID:    1,
		Peril: catalog.Peril(r.Intn(catalog.NumPerils)),
		Lat:   -90 + 180*r.Float64(),
		Lon:   -180 + 360*r.Float64(),
	}
	switch r.Intn(8) {
	case 0:
		ev.Lat = []float64{90, -90, 89.999, -89.999}[r.Intn(4)]
	case 1:
		ev.Lon = []float64{180, -180, 179.9, -179.9}[r.Intn(4)]
	}
	switch ev.Peril {
	case catalog.Earthquake:
		ev.Magnitude = 2 + 7*r.Float64()
		ev.RadiusKm = 20 + 25*(ev.Magnitude-5)
	case catalog.Hurricane:
		ev.Magnitude = 15 + 50*r.Float64()
		ev.RadiusKm = 80 + 220*r.Float64()
	case catalog.Flood:
		ev.Magnitude = -0.5 + 5*r.Float64()
		ev.RadiusKm = 10 + 60*r.Float64()
	case catalog.WinterStorm:
		ev.Magnitude = 10 + 40*r.Float64()
		ev.RadiusKm = 150 + 350*r.Float64()
	case catalog.Tornado:
		ev.Magnitude = -0.1 + 5*r.Float64()
		ev.RadiusKm = 2 + 10*r.Float64()
	}
	switch r.Intn(40) {
	case 0:
		ev.RadiusKm = []float64{0, -5, math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(5)]
	case 1:
		ev.Magnitude = []float64{0, math.NaN(), math.Inf(1), math.Inf(-1), 1e300}[r.Intn(5)]
	case 2:
		ev.Lat = []float64{math.NaN(), math.Inf(1), 91, -1e6}[r.Intn(4)]
	case 3:
		ev.Lon = []float64{math.NaN(), math.Inf(-1), 361, 1e9}[r.Intn(4)]
	case 4:
		ev.Peril = catalog.Peril(catalog.NumPerils + r.Intn(3))
	case 5:
		ev.RadiusKm = 8000 // with MaxRangeFactor 50 the cutoff is beyond half the globe
	}
	return ev
}

// sitesAround mixes sites inside and around the event's footprint with
// sites anywhere, sites exactly on and a hair either side of every
// radius the cull derives, the poles, the antimeridian and non-finite
// or non-geographic coordinates. It returns the table and the
// coordinates it was built from.
func sitesAround(r *rand.Rand, m Model, ev catalog.Event, n int) (s *Sites, lats, lons []float64) {
	cut := ev.RadiusKm * m.maxRange()
	felt := m.FeltRadiusKm(ev)
	reach := felt
	if !(reach > 0 && reach < 1e5) {
		reach = 500
	}
	add := func(lat, lon float64) { lats, lons = append(lats, lat), append(lons, lon) }
	for _, radius := range []float64{cut, felt, felt / (1 + 1e-9), ev.RadiusKm / 2} {
		for _, f := range []float64{1 - 1e-12, 1, 1 + 1e-12, 1 - 1e-9, 1 + 1e-9} {
			add(destination(ev.Lat, ev.Lon, 2*math.Pi*r.Float64(), radius*f))
		}
	}
	add(ev.Lat, ev.Lon)
	add(90, 0)
	add(-90, 123)
	add(ev.Lat, 180)
	add(ev.Lat, -180)
	add(-ev.Lat, ev.Lon+180) // antipode
	add(math.NaN(), ev.Lon)
	add(ev.Lat, math.Inf(1))
	add(math.Inf(-1), math.NaN())
	add(95, ev.Lon)
	add(ev.Lat, ev.Lon+720)
	for len(lats) < n {
		switch r.Intn(4) {
		case 0:
			add(-90+180*r.Float64(), -180+360*r.Float64())
		case 1: // across the antimeridian or near a pole, wherever the event is
			add(-90+180*r.Float64(), []float64{179.99, -179.99}[r.Intn(2)])
		default:
			add(destination(ev.Lat, ev.Lon, 2*math.Pi*r.Float64(), 1.3*reach*r.Float64()))
		}
	}
	return NewSites(len(lats), func(i int) (float64, float64) { return lats[i], lons[i] }), lats, lons
}

// A site absent from Footprint's output has IntensityAt exactly 0 (a
// caller that skips on `<= 0` would have skipped it); a present one
// carries exactly IntensityAt's bits, NaN included.
func TestFootprintMatchesPointwise(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	models := []Model{{}, {MaxRangeFactor: 0.5}, {MaxRangeFactor: 50}, {MaxRangeFactor: math.Inf(1)}, {MaxRangeFactor: math.NaN()}}
	var pairs, felt, nan int
	var got []Felt
	for pairs < 1_000_000 {
		m := models[0]
		if r.Intn(3) == 0 {
			m = models[r.Intn(len(models))]
		}
		ev := randomEvent(r)
		sites, lats, lons := sitesAround(r, m, ev, 200)
		got = m.Footprint(ev, sites, got)
		next := 0
		for i, lat := range lats {
			lon := lons[i]
			want := m.IntensityAt(ev, lat, lon)
			if next < len(got) && got[next].Site == i {
				if math.Float64bits(float64(got[next].Intensity)) != math.Float64bits(float64(want)) {
					t.Fatalf("%+v factor %v site (%v, %v): footprint %v, pointwise %v", ev, m.MaxRangeFactor, lat, lon, got[next].Intensity, want)
				}
				if want <= 0 {
					t.Fatalf("%+v site (%v, %v): footprint kept intensity %v", ev, lat, lon, want)
				}
				if want != want {
					nan++
				}
				felt++
				next++
			} else if want != 0 {
				t.Fatalf("%+v factor %v site (%v, %v) at %v km (felt radius %v): dropped by footprint, pointwise %v",
					ev, m.MaxRangeFactor, lat, lon, DistanceKm(ev.Lat, ev.Lon, lat, lon), m.FeltRadiusKm(ev), want)
			}
		}
		if next != len(got) {
			t.Fatalf("%+v: footprint not ascending or has unknown sites: %v", ev, got)
		}
		pairs += len(lats)
	}
	// The generator must land on both sides of the cull often enough
	// for the loop above to have tested it.
	if felt < pairs/20 || felt > pairs*19/20 || nan < 1000 {
		t.Fatalf("unbalanced sample: %d felt (%d NaN) of %d pairs", felt, nan, pairs)
	}
}

// The felt radius is only useful if it is tight: on catalogue events
// it must sit inside the cutoff for the perils whose formula crosses
// zero, and nothing may be felt in the ring between the two.
func TestFeltRadiusInsideCutoff(t *testing.T) {
	cat, err := catalog.Generate(catalog.DefaultConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	var m Model
	tighter := 0
	for _, ev := range cat.Events {
		cut, felt := ev.RadiusKm*3, m.FeltRadiusKm(ev)
		if felt > cut {
			t.Fatalf("%+v: felt radius %v beyond cutoff %v", ev, felt, cut)
		}
		if felt < cut {
			tighter++
		}
		if ev.Peril == catalog.Flood && felt != cut {
			t.Fatalf("flood is felt to the cutoff, got %v of %v", felt, cut)
		}
		// Just inside a positive radius tighter than the cutoff the
		// event is still felt: the padding is not slack.
		if felt > 0 && felt < cut {
			lat, lon := destination(ev.Lat, ev.Lon, 1, felt*(1-1e-6))
			if m.IntensityAt(ev, lat, lon) <= 0 {
				t.Fatalf("%+v: nothing felt just inside the felt radius %v", ev, felt)
			}
		}
	}
	if tighter < cat.Len()/2 {
		t.Fatalf("felt radius tighter than the cutoff for only %d of %d events", tighter, cat.Len())
	}
}
