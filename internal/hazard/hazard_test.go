package hazard

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
)

func TestDistanceKnown(t *testing.T) {
	// London to Paris ≈ 344 km.
	d := DistanceKm(51.5074, -0.1278, 48.8566, 2.3522)
	if math.Abs(d-344) > 5 {
		t.Fatalf("London-Paris = %v km, want ~344", d)
	}
	if DistanceKm(10, 20, 10, 20) != 0 {
		t.Fatal("zero distance to self")
	}
}

func TestDistanceSymmetryProperty(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		lat1 := math.Mod(math.Abs(a), 90)
		lon1 := math.Mod(math.Abs(b), 180)
		lat2 := math.Mod(math.Abs(c), 90)
		lon2 := math.Mod(math.Abs(d), 180)
		d1 := DistanceKm(lat1, lon1, lat2, lon2)
		d2 := DistanceKm(lat2, lon2, lat1, lon1)
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func eventAt(p catalog.Peril, mag, radius float64) catalog.Event {
	return catalog.Event{ID: 1, Peril: p, Lat: 30, Lon: -90, Magnitude: mag, RadiusKm: radius}
}

func TestIntensityDecaysWithDistance(t *testing.T) {
	var m Model
	for _, p := range []catalog.Peril{catalog.Earthquake, catalog.Hurricane, catalog.Flood, catalog.WinterStorm, catalog.Tornado} {
		ev := eventAt(p, 7.5, 100)
		if p == catalog.Hurricane {
			ev.Magnitude = 55
		}
		if p == catalog.Flood {
			ev.Magnitude = 3
		}
		if p == catalog.WinterStorm {
			ev.Magnitude = 40
		}
		if p == catalog.Tornado {
			ev.Magnitude = 4
		}
		prev := m.IntensityAt(ev, ev.Lat, ev.Lon)
		if prev <= 0 {
			t.Fatalf("%v: zero intensity at epicenter", p)
		}
		for _, dLat := range []float64{0.2, 0.5, 1.0, 2.0, 4.0} {
			cur := m.IntensityAt(ev, ev.Lat+dLat, ev.Lon)
			if cur > prev+1e-9 {
				t.Fatalf("%v: intensity increased with distance (%v -> %v at dLat %v)", p, prev, cur, dLat)
			}
			prev = cur
		}
	}
}

func TestIntensityZeroBeyondCutoff(t *testing.T) {
	var m Model
	ev := eventAt(catalog.Earthquake, 8, 50)
	// cutoff = 3 * 50 km = 150 km ≈ 1.35 degrees latitude
	if i := m.IntensityAt(ev, ev.Lat+2.0, ev.Lon); i != 0 {
		t.Fatalf("intensity %v beyond cutoff, want 0", i)
	}
}

func TestIntensityGrowsWithMagnitude(t *testing.T) {
	var m Model
	small := eventAt(catalog.Earthquake, 5.5, 60)
	big := eventAt(catalog.Earthquake, 8.0, 60)
	at := func(ev catalog.Event) Intensity { return m.IntensityAt(ev, ev.Lat+0.3, ev.Lon) }
	if at(big) <= at(small) {
		t.Fatalf("M8 intensity %v <= M5.5 intensity %v", at(big), at(small))
	}
}

func TestIntensityBounds(t *testing.T) {
	var m Model
	f := func(magRaw, dRaw uint16) bool {
		mag := 5 + float64(magRaw%35)/10 // 5 .. 8.5
		d := float64(dRaw%500) / 100     // 0 .. 5 degrees
		ev := eventAt(catalog.Earthquake, mag, 80)
		i := m.IntensityAt(ev, ev.Lat+d, ev.Lon)
		return i >= 0 && i <= 10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTornadoSharpFalloff(t *testing.T) {
	var m Model
	ev := eventAt(catalog.Tornado, 4.5, 5)
	center := m.IntensityAt(ev, ev.Lat, ev.Lon)
	off := m.IntensityAt(ev, ev.Lat+0.1, ev.Lon) // ~11 km off track
	if center < 5 {
		t.Fatalf("direct tornado hit intensity %v too small", center)
	}
	if off > center/2 {
		t.Fatalf("tornado intensity %v at 11km should be far below center %v", off, center)
	}
}

func TestDecayProfile(t *testing.T) {
	if decay(0, 100) != 1 || decay(50, 100) != 1 {
		t.Error("flat inside half radius")
	}
	if d := decay(100, 100); math.Abs(d-0.5) > 1e-12 {
		t.Errorf("decay at radius = %v, want 0.5", d)
	}
	if decay(10, 0) != 0 {
		t.Error("zero radius yields zero")
	}
}
