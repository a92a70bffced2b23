package catmodel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/elt"
	"repro/internal/exposure"
	"repro/internal/financial"
)

// naiveRun is the differential oracle for Engine.Run: the loop Run was
// before the footprint cull, one IntensityAt — one great-circle
// distance — for every (event, interest) pair, on one goroutine. It
// shares the three model modules with Run and nothing of its layout:
// no site table, no cull, no per-location grouping, no flatten step.
func naiveRun(e *Engine, cat *catalog.Catalog, db *exposure.Database, contractID uint32) *elt.Table {
	var recs []elt.Record
	for _, ev := range cat.Events {
		var meanSum, varISum, sigmaCSum, exposed float64
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
			gMean, gSD := standardTerms(in).ApplyMoments(mdr*in.Value, sd*in.Value)
			if gMean <= 0 && gSD <= 0 {
				continue
			}
			meanSum += gMean
			varISum += float64((1 - correlatedShare) * gSD * gSD)
			sigmaCSum += float64(math.Sqrt(correlatedShare) * gSD)
			exposed += in.Value
		}
		if meanSum <= 0 {
			continue
		}
		recs = append(recs, elt.Record{
			EventID:      ev.ID,
			MeanLoss:     meanSum,
			SigmaI:       math.Sqrt(varISum),
			SigmaC:       sigmaCSum,
			ExposedValue: exposed,
		})
	}
	return elt.New(contractID, recs)
}

func requireSameBits(t *testing.T, what string, got, want *elt.Table) {
	t.Helper()
	if got.ContractID != want.ContractID || got.Len() != want.Len() {
		t.Fatalf("%s: contract %d with %d records, oracle contract %d with %d", what, got.ContractID, got.Len(), want.ContractID, want.Len())
	}
	bits := math.Float64bits
	for i, w := range want.Records {
		g := got.Records[i]
		if g.EventID != w.EventID || bits(g.MeanLoss) != bits(w.MeanLoss) || bits(g.SigmaI) != bits(w.SigmaI) ||
			bits(g.SigmaC) != bits(w.SigmaC) || bits(g.ExposedValue) != bits(w.ExposedValue) {
			t.Fatalf("%s: record %d is %+v, oracle %+v", what, i, g, w)
		}
	}
}

// variants returns db itself and hand-edited copies of it that a
// generated database never looks like.
func variants(db *exposure.Database, seed int64) map[string]*exposure.Database {
	r := rand.New(rand.NewSource(seed))
	clone := func() *exposure.Database {
		return &exposure.Database{
			Locations: append([]exposure.Location(nil), db.Locations...),
			Interests: append([]exposure.Interest(nil), db.Interests...),
		}
	}
	shuffled := clone()
	r.Shuffle(len(shuffled.Interests), func(i, j int) {
		shuffled.Interests[i], shuffled.Interests[j] = shuffled.Interests[j], shuffled.Interests[i]
	})
	// A location in the middle and the last one lose their interests to
	// location 0, which breaks the ascending order too.
	vacated := clone()
	for i := range vacated.Interests {
		if l := vacated.Interests[i].LocationIndex; l == len(db.Locations)/2 || l == len(db.Locations)-1 {
			vacated.Interests[i].LocationIndex = 0
		}
	}
	// Non-finite and non-geographic coordinates: the per-pair loop turns
	// them into NaN intensities and NaN records, and so must the cull.
	odd := clone()
	odd.Locations[1].Lat = math.NaN()
	odd.Locations[2].Lon = math.Inf(1)
	odd.Locations[3].Lat = 120
	return map[string]*exposure.Database{"generated": db, "shuffled": shuffled, "vacated": vacated, "odd-coordinates": odd}
}

// Run must reproduce the per-pair oracle bit for bit: every float of
// every record, for any worker count, cutoff factor and database order.
func TestRunMatchesNaiveOracle(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 17} {
		cat, db := smallWorld(t, 600, 60, seed)
		dbs := variants(db, int64(seed))
		for _, factor := range []float64{0, 0.5, 3, 50} {
			eng := New()
			eng.Hazard.MaxRangeFactor = factor
			for dname, d := range dbs {
				want := naiveRun(eng, cat, d, 9)
				if dname == "generated" && want.Len() == 0 {
					t.Fatalf("seed %d factor %v: oracle ELT is empty, nothing compared", seed, factor)
				}
				for _, workers := range []int{1, 2, 7} {
					eng.Workers = workers
					got, err := eng.Run(context.Background(), cat, d, 9)
					if err != nil {
						t.Fatal(err)
					}
					requireSameBits(t, fmt.Sprintf("seed %d factor %v db %s workers %d", seed, factor, dname, workers), got, want)
				}
			}
		}
	}
}

func TestFlattenGroupsInterestsByLocation(t *testing.T) {
	_, db := smallWorld(t, 10, 40, 21)
	for name, d := range variants(db, 21) {
		book, err := flatten(d)
		if err != nil {
			t.Fatal(err)
		}
		if generated := name == "generated" || name == "odd-coordinates"; generated != (book.byLocation == nil) {
			t.Fatalf("%s: location-major detected = %v", name, book.byLocation == nil)
		}
		seen := make([]bool, len(d.Interests))
		for l := range d.Locations {
			prev := -1
			for k := book.start[l]; k < book.start[l+1]; k++ {
				i := k
				if book.byLocation != nil {
					i = book.byLocation[k]
				}
				if d.Interests[i].LocationIndex != l || i <= prev || seen[i] {
					t.Fatalf("%s: location %d lists interest %d (at location %d) after %d", name, l, i, d.Interests[i].LocationIndex, prev)
				}
				seen[i], prev = true, i
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("%s: interest %d is at no location", name, i)
			}
		}
	}
}

// A hand-built database can name a location or a construction class
// that does not exist; that is an error naming the interest, not an
// index out of range inside the kernel.
func TestRunRejectsDanglingInterest(t *testing.T) {
	cat, db := smallWorld(t, 50, 10, 6)
	for name, edit := range map[string]func(*exposure.Interest){
		"location past the end": func(in *exposure.Interest) { in.LocationIndex = len(db.Locations) },
		"negative location":     func(in *exposure.Interest) { in.LocationIndex = -1 },
		"unknown construction":  func(in *exposure.Interest) { in.Construction = exposure.Construction(exposure.NumConstruction) },
	} {
		bad := &exposure.Database{Locations: db.Locations, Interests: append([]exposure.Interest(nil), db.Interests...)}
		edit(&bad.Interests[4])
		_, err := New().Run(context.Background(), cat, bad, 1)
		if err == nil || !strings.Contains(err.Error(), "interest 4") {
			t.Fatalf("%s: want an error naming interest 4, got %v", name, err)
		}
		if _, err := New().RunPortfolio(context.Background(), cat, []*exposure.Database{db, bad}); err == nil || !strings.Contains(err.Error(), "contract 2") {
			t.Fatalf("%s: RunPortfolio should name the contract, got %v", name, err)
		}
	}
}

// Policy terms are standard terms on the interest's value; a value
// whose terms fail financial.Terms.Validate is an error naming the
// interest at build time, not a silent scaling of every loss the
// interest takes.
func TestFlattenRejectsInvalidTerms(t *testing.T) {
	_, db := smallWorld(t, 10, 10, 6)
	if _, err := flatten(db); err != nil {
		t.Fatalf("generated values: %v", err)
	}
	for name, value := range map[string]float64{
		"negative value": -1e6,
		"NaN value":      math.NaN(),
		"infinite value": math.Inf(1),
	} {
		for _, occ := range []exposure.Occupancy{exposure.Residential, exposure.Commercial} {
			bad := &exposure.Database{Locations: db.Locations, Interests: append([]exposure.Interest(nil), db.Interests...)}
			bad.Interests[4].Value, bad.Interests[4].Occupancy = value, occ
			_, err := flatten(bad)
			if !errors.Is(err, financial.ErrInvalidTerms) || !strings.Contains(err.Error(), "interest 4") {
				t.Fatalf("%s, %v: want ErrInvalidTerms naming interest 4, got %v", name, occ, err)
			}
		}
	}
}
