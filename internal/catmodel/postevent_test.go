package catmodel

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exposure"
	"repro/internal/mathx"
)

func postEventDBs(t testing.TB, n int, seed uint64) []*exposure.Database {
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

// edgeDB holds 1 M residential sites where a latitude/longitude box
// goes wrong: one either side of the antimeridian, and two across the
// north pole from each other.
func edgeDB() *exposure.Database {
	db := &exposure.Database{Locations: []exposure.Location{
		{ID: 1, Lat: -17.8, Lon: 179.9},
		{ID: 2, Lat: -17.8, Lon: -179.9},
		{ID: 3, Lat: 89.6, Lon: 10},
		{ID: 4, Lat: 89.4, Lon: -170},
	}}
	for l := range db.Locations {
		db.Interests = append(db.Interests, exposure.Interest{LocationIndex: l, Construction: exposure.Masonry, Value: 1e6})
	}
	return db
}

// naiveEstimate is the differential oracle for PostEvent.Estimate: one
// IntensityAt for every interest of every book, books in order and
// interests ascending, on one goroutine, each book summed on its own
// and the books added in order. It shares the three model modules with
// Estimate and nothing of its layout: no site table, no footprint cull,
// no flatten step.
func naiveEstimate(e *Engine, dbs []*exposure.Database, ev catalog.Event) *Estimate {
	var total postEventSums
	for _, db := range dbs {
		var s postEventSums
		for _, in := range db.Interests {
			loc := db.Locations[in.LocationIndex]
			inten := e.Hazard.IntensityAt(ev, loc.Lat, loc.Lon)
			if inten <= 0 {
				continue
			}
			mdr, sd := vuln.DamageMoments(ev.Peril, in.Construction, inten)
			if mdr <= 0 {
				continue
			}
			gm, gsd := standardTerms(in).ApplyMoments(mdr*in.Value, sd*in.Value)
			s.sites++
			s.exposed += in.Value
			s.guMean += float64(mdr * in.Value)
			s.gMean += gm
			s.gVar += float64(gsd * gsd)
		}
		total.sites += s.sites
		total.exposed += s.exposed
		total.guMean += s.guMean
		total.gMean += s.gMean
		total.gVar += s.gVar
	}
	sd := math.Sqrt(total.gVar)
	z := 1.6448536269514722
	return &Estimate{
		EventID: ev.ID, SitesTouched: total.sites, ExposedValue: total.exposed,
		GroundUpMean: total.guMean, GrossMean: total.gMean, GrossSD: sd,
		Low: mathx.Clamp(total.gMean-float64(z*sd), 0, math.Inf(1)), High: total.gMean + float64(z*sd),
	}
}

// requireSameEstimate fails unless got and want agree bit for bit in
// every field but Elapsed.
func requireSameEstimate(t *testing.T, what string, got, want *Estimate) {
	t.Helper()
	g, w := *got, *want
	g.Elapsed, w.Elapsed = 0, 0
	bits := math.Float64bits
	for _, v := range [][2]float64{
		{g.ExposedValue, w.ExposedValue}, {g.GroundUpMean, w.GroundUpMean}, {g.GrossMean, w.GrossMean},
		{g.GrossSD, w.GrossSD}, {g.Low, w.Low}, {g.High, w.High},
	} {
		if bits(v[0]) != bits(v[1]) {
			t.Fatalf("%s: estimate %+v, want %+v", what, g, w)
		}
	}
	if g.EventID != w.EventID || g.SitesTouched != w.SitesTouched {
		t.Fatalf("%s: estimate %+v, want %+v", what, g, w)
	}
}

func TestPostEventBasics(t *testing.T) {
	dbs := postEventDBs(t, 2, 11)
	est, err := New().PostEvent(dbs)
	if err != nil {
		t.Fatal(err)
	}
	if est.Sites() != len(dbs[0].Interests)+len(dbs[1].Interests) {
		t.Fatalf("%d sites prepared, want every interest", est.Sites())
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

// Estimate must reproduce the per-interest oracle bit for bit, with the
// felt radius inside, at and beyond the cutoff, and where an event's
// footprint crosses the antimeridian or covers a pole.
func TestPostEventMatchesNaiveOracle(t *testing.T) {
	dbs := append(postEventDBs(t, 3, 13), edgeDB())
	near := eventNear(dbs)
	// An anchor on a whole degree: the corner a 1° grid would split the
	// footprint at.
	corner := near
	corner.Lat, corner.Lon = math.Round(near.Lat), math.Round(near.Lon)
	hurricane := corner
	hurricane.Peril, hurricane.Magnitude, hurricane.RadiusKm = catalog.Hurricane, 55, 250
	flood := near
	flood.Peril, flood.Magnitude, flood.RadiusKm = catalog.Flood, 2.5, 60
	east := catalog.Event{ID: 5, Peril: catalog.Hurricane, Lat: -17.8, Lon: 179.95, Magnitude: 50, RadiusKm: 100}
	west := east
	west.Lon = -179.95
	polar := catalog.Event{ID: 6, Peril: catalog.Hurricane, Lat: 89.5, Lon: 100, Magnitude: 55, RadiusKm: 250}
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
		{"across the antimeridian from the east", east, 0},
		{"across the antimeridian from the west", west, 0},
		{"felt radius reaches a pole", polar, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := New()
			eng.Hazard.MaxRangeFactor = tc.factor
			est, err := eng.PostEvent(dbs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := est.Estimate(context.Background(), tc.ev)
			if err != nil {
				t.Fatal(err)
			}
			want := naiveEstimate(eng, dbs, tc.ev)
			if want.SitesTouched == 0 {
				t.Fatal("the oracle touched no sites: the case compares nothing")
			}
			requireSameEstimate(t, tc.name, got, want)
		})
	}
}

// The estimate is a function of the book and the event, not of the
// machine: bit-identical whatever the number of cores it runs on, and
// with other estimates running on the same PostEvent at once.
func TestPostEventAcrossCoreCounts(t *testing.T) {
	dbs := postEventDBs(t, 8, 31)
	ev := eventNear(dbs)
	eng := New()
	est, err := eng.PostEvent(dbs)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveEstimate(eng, dbs, ev)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 4, 8} {
		runtime.GOMAXPROCS(procs)
		got := make([]*Estimate, 3)
		errs := make([]error, len(got))
		var wg sync.WaitGroup
		wg.Add(len(got))
		for c := range got {
			go func() {
				defer wg.Done()
				got[c], errs[c] = est.Estimate(context.Background(), ev)
			}()
		}
		wg.Wait()
		for c := range got {
			if errs[c] != nil {
				t.Fatal(errs[c])
			}
			requireSameEstimate(t, fmt.Sprintf("GOMAXPROCS %d, caller %d", procs, c), got[c], want)
		}
	}
}

func TestPostEventRemoteEventTouchesNothing(t *testing.T) {
	dbs := postEventDBs(t, 1, 17)
	est, err := New().PostEvent(dbs)
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

func TestPostEventSeverityMonotonicity(t *testing.T) {
	dbs := postEventDBs(t, 2, 19)
	est, err := New().PostEvent(dbs)
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

func TestPostEventValidation(t *testing.T) {
	if _, err := New().PostEvent(nil); err == nil {
		t.Fatal("no databases should error")
	}
	if _, err := New().PostEvent([]*exposure.Database{{}}); err == nil {
		t.Fatal("empty databases should error")
	}
	good := postEventDBs(t, 1, 37)[0]
	// A hand-built database whose interest names a location that does
	// not exist is an error naming both, not an index out of range.
	for _, idx := range []int{len(good.Locations), -1} {
		bad := &exposure.Database{Locations: good.Locations, Interests: append([]exposure.Interest(nil), good.Interests...)}
		bad.Interests[2].LocationIndex = idx
		_, err := New().PostEvent([]*exposure.Database{good, bad})
		if err == nil || !strings.Contains(err.Error(), "database 1") || !strings.Contains(err.Error(), "interest 2") {
			t.Fatalf("location index %d: want an error naming database 1 and interest 2, got %v", idx, err)
		}
	}
}

func TestPostEventCancellation(t *testing.T) {
	dbs := postEventDBs(t, 2, 29)
	est, err := New().PostEvent(dbs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := est.Estimate(ctx, eventNear(dbs)); err == nil {
		t.Fatal("cancelled estimate should error")
	}
}

func BenchmarkPostEventEstimate(b *testing.B) {
	dbs := postEventDBs(b, 8, 31)
	est, err := New().PostEvent(dbs)
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
