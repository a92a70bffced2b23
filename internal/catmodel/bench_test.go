package catmodel

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exposure"
	"repro/internal/hazard"
)

func benchWorld(b *testing.B, nEvents, nLocs int) (*catalog.Catalog, *exposure.Database) {
	b.Helper()
	ccfg := catalog.DefaultConfig()
	ccfg.NumEvents = nEvents
	cat, err := catalog.Generate(ccfg, 7)
	if err != nil {
		b.Fatal(err)
	}
	ecfg := exposure.DefaultConfig()
	ecfg.NumLocations = nLocs
	db, err := exposure.Generate(ecfg, 8)
	if err != nil {
		b.Fatal(err)
	}
	return cat, db
}

// feltPairs counts the (event, interest) pairs the kernel has to price:
// the interests at the sites each event's footprint keeps.
func feltPairs(b *testing.B, eng *Engine, cat *catalog.Catalog, db *exposure.Database) float64 {
	b.Helper()
	book, err := flatten(db)
	if err != nil {
		b.Fatal(err)
	}
	var sites []hazard.Felt
	var pairs []feltInterest
	n := 0
	for _, ev := range cat.Events {
		sites = eng.Hazard.Footprint(ev, book.sites, sites)
		pairs = book.gather(sites, pairs)
		n += len(pairs)
	}
	return float64(n)
}

// pairs/s is the rate over every (event, interest) pair of the book,
// the count the cost used to be proportional to; felt-pairs/s is the
// rate over the pairs with nonzero intensity, which it is proportional
// to now.
func BenchmarkRunEventExposurePairs(b *testing.B) {
	cat, db := benchWorld(b, 5_000, 300)
	felt := feltPairs(b, New(), cat, db)
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := New()
			eng.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(context.Background(), cat, db, 1); err != nil {
					b.Fatal(err)
				}
			}
			pairs := float64(cat.Len()) * float64(len(db.Interests))
			b.ReportMetric(pairs*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
			b.ReportMetric(felt*float64(b.N)/b.Elapsed().Seconds(), "felt-pairs/s")
			b.ReportMetric(felt/pairs, "felt-share")
		})
	}
}

func BenchmarkRunScalesWithEvents(b *testing.B) {
	for _, events := range []int{1_000, 10_000} {
		cat, db := benchWorld(b, events, 200)
		b.Run(fmt.Sprintf("events=%d", events), func(b *testing.B) {
			eng := New()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(context.Background(), cat, db, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
