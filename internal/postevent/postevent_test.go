package postevent

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exposure"
	"repro/internal/financial"
)

func testDBs(t testing.TB, n int, seed uint64) []*exposure.Database {
	t.Helper()
	dbs := make([]*exposure.Database, n)
	for i := range dbs {
		cfg := exposure.DefaultConfig()
		cfg.NumLocations = 500
		db, err := exposure.Generate(cfg, seed+uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		dbs[i] = db
	}
	return dbs
}

func eventNear(dbs []*exposure.Database) catalog.Event {
	// Drop the event on the first location so the footprint is
	// guaranteed to touch exposure.
	loc := dbs[0].Locations[0]
	return catalog.Event{
		ID: 77, Peril: catalog.Earthquake,
		Lat: loc.Lat, Lon: loc.Lon,
		Magnitude: 7.8, RadiusKm: 80, AnnualRate: 0.001,
	}
}

func TestEstimateBasics(t *testing.T) {
	dbs := testDBs(t, 2, 11)
	est, err := New(dbs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if est.Sites() == 0 {
		t.Fatal("no sites indexed")
	}
	res, err := est.Estimate(context.Background(), eventNear(dbs))
	if err != nil {
		t.Fatal(err)
	}
	if res.SitesTouched == 0 {
		t.Fatal("event on top of exposure touched no sites")
	}
	if res.GrossMean <= 0 || res.GroundUpMean <= 0 {
		t.Fatalf("expected positive losses: %+v", res)
	}
	if res.GrossMean > res.GroundUpMean+1e-9 {
		t.Fatal("gross cannot exceed ground-up")
	}
	if res.Low > res.GrossMean || res.High < res.GrossMean {
		t.Fatal("band must bracket the mean")
	}
	if res.Low < 0 {
		t.Fatal("band floor broken")
	}
	if res.Elapsed <= 0 {
		t.Fatal("no timing")
	}
}

func TestIndexedMatchesFullScan(t *testing.T) {
	dbs := testDBs(t, 3, 13)
	near := eventNear(dbs)
	// An anchor on a grid-cell corner: the footprint lies in four cells.
	corner := near
	corner.Lat, corner.Lon = math.Round(near.Lat), math.Round(near.Lon)
	hurricane := corner
	hurricane.Peril, hurricane.Magnitude, hurricane.RadiusKm = catalog.Hurricane, 55, 250
	flood := near
	flood.Peril, flood.Magnitude, flood.RadiusKm = catalog.Flood, 2.5, 60
	for _, tc := range []struct {
		name   string
		ev     catalog.Event
		factor float64
	}{
		{"on a location", near, 0},
		{"on a cell corner", corner, 0},
		{"hurricane over many cells", hurricane, 0},
		{"flood bounded by the cutoff", flood, 0},
		{"cutoff inside the radius", near, 0.5},
		{"flood, short cutoff", flood, 0.5},
		{"flood, long cutoff", flood, 8},
		{"cutoff beyond half the globe", hurricane, 50},
	} {
		t.Run(tc.name, func(t *testing.T) {
			est, err := New(dbs, nil)
			if err != nil {
				t.Fatal(err)
			}
			est.Hazard.MaxRangeFactor = tc.factor
			fast, err := est.Estimate(context.Background(), tc.ev)
			if err != nil {
				t.Fatal(err)
			}
			slow, err := est.EstimateFullScan(context.Background(), tc.ev)
			if err != nil {
				t.Fatal(err)
			}
			if slow.SitesTouched == 0 {
				t.Fatal("full scan touched no sites: the case compares nothing")
			}
			if fast.SitesTouched != slow.SitesTouched {
				t.Fatalf("indexed touched %d sites, full scan %d", fast.SitesTouched, slow.SitesTouched)
			}
			// The two sum the same sites, split across workers at
			// different points: equal up to the order of additions.
			for _, v := range [][2]float64{
				{fast.GrossMean, slow.GrossMean}, {fast.GrossSD, slow.GrossSD},
				{fast.GroundUpMean, slow.GroundUpMean}, {fast.ExposedValue, slow.ExposedValue},
			} {
				if math.Abs(v[0]-v[1]) > 1e-9*(1+v[1]) {
					t.Fatalf("indexed %+v vs full scan %+v", fast, slow)
				}
			}
			if n := len(est.candidates(tc.ev)); tc.factor < 50 && n >= est.Sites()/2 {
				t.Fatalf("index selected %d of %d sites: the window is not selective", n, est.Sites())
			}
		})
	}
}

func TestRemoteEventTouchesNothing(t *testing.T) {
	dbs := testDBs(t, 1, 17)
	est, err := New(dbs, nil)
	if err != nil {
		t.Fatal(err)
	}
	far := catalog.Event{
		ID: 1, Peril: catalog.Hurricane,
		Lat: -44, Lon: 170, // the default regions are all in North America
		Magnitude: 55, RadiusKm: 150,
	}
	res, err := est.Estimate(context.Background(), far)
	if err != nil {
		t.Fatal(err)
	}
	if res.SitesTouched != 0 || res.GrossMean != 0 {
		t.Fatalf("antipodal event produced losses: %+v", res)
	}
}

func TestSeverityMonotonicity(t *testing.T) {
	dbs := testDBs(t, 2, 19)
	est, err := New(dbs, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev := eventNear(dbs)
	small := ev
	small.Magnitude = 5.5
	big := ev
	big.Magnitude = 8.4
	sres, err := est.Estimate(context.Background(), small)
	if err != nil {
		t.Fatal(err)
	}
	bres, err := est.Estimate(context.Background(), big)
	if err != nil {
		t.Fatal(err)
	}
	if bres.GrossMean <= sres.GrossMean {
		t.Fatalf("M8.4 loss %v should exceed M5.5 loss %v", bres.GrossMean, sres.GrossMean)
	}
}

func TestCustomTerms(t *testing.T) {
	dbs := testDBs(t, 1, 23)
	full, err := New(dbs, func(exposure.Interest) financial.Terms { return financial.Terms{} })
	if err != nil {
		t.Fatal(err)
	}
	half, err := New(dbs, func(exposure.Interest) financial.Terms { return financial.Terms{Share: 0.5} })
	if err != nil {
		t.Fatal(err)
	}
	ev := eventNear(dbs)
	fres, err := full.Estimate(context.Background(), ev)
	if err != nil {
		t.Fatal(err)
	}
	hres, err := half.Estimate(context.Background(), ev)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hres.GrossMean-fres.GrossMean/2) > 1e-6*fres.GrossMean {
		t.Fatalf("50%% share: %v vs full %v", hres.GrossMean, fres.GrossMean)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Fatal("no databases should error")
	}
	if _, err := New([]*exposure.Database{{}}, nil); err == nil {
		t.Fatal("empty databases should error")
	}
	// A hand-built database whose interest names a location that does
	// not exist is an error naming both, not an index out of range.
	good := testDBs(t, 1, 37)[0]
	for _, idx := range []int{len(good.Locations), -1} {
		bad := &exposure.Database{Locations: good.Locations, Interests: append([]exposure.Interest(nil), good.Interests...)}
		bad.Interests[2].LocationIndex = idx
		_, err := New([]*exposure.Database{good, bad}, nil)
		if err == nil || !strings.Contains(err.Error(), "database 1") || !strings.Contains(err.Error(), "interest 2") {
			t.Fatalf("location index %d: want an error naming database 1 and interest 2, got %v", idx, err)
		}
	}
}

func TestCancellation(t *testing.T) {
	dbs := testDBs(t, 2, 29)
	est, err := New(dbs, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := est.EstimateFullScan(ctx, eventNear(dbs)); err == nil {
		t.Fatal("cancelled estimate should error")
	}
}

func BenchmarkEstimateIndexed(b *testing.B) {
	dbs := testDBs(b, 8, 31)
	est, err := New(dbs, nil)
	if err != nil {
		b.Fatal(err)
	}
	ev := eventNear(dbs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Estimate(context.Background(), ev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateFullScan(b *testing.B) {
	dbs := testDBs(b, 8, 31)
	est, err := New(dbs, nil)
	if err != nil {
		b.Fatal(err)
	}
	ev := eventNear(dbs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimateFullScan(context.Background(), ev); err != nil {
			b.Fatal(err)
		}
	}
}
