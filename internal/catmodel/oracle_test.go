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
	corr := e.CorrelatedShare
	if corr <= 0 || corr > 1 {
		corr = 0.3
	}
	termsFor := e.TermsFor
	if termsFor == nil {
		termsFor = standardTerms
	}
	var recs []elt.Record
	for _, ev := range cat.Events {
		var meanSum, varISum, sigmaCSum, exposed float64
		for _, in := range db.Interests {
			loc := db.Locations[in.LocationIndex]
			inten := e.Hazard.IntensityAt(ev, loc.Lat, loc.Lon)
			if inten <= 0 {
				continue
			}
			mdr, sd := e.Vulnerability.DamageMoments(ev.Peril, in.Construction, inten)
			if mdr <= 0 {
				continue
			}
			gMean, gSD := termsFor(in).ApplyMoments(mdr*in.Value, sd*in.Value)
			if gMean <= 0 && gSD <= 0 {
				continue
			}
			meanSum += gMean
			varISum += (1 - corr) * gSD * gSD
			sigmaCSum += math.Sqrt(corr) * gSD
			exposed += in.Value
		}
		if meanSum < e.MinMeanLoss || meanSum <= 0 {
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
// every record, for any worker count, cutoff factor, database order
// and engine setting.
func TestRunMatchesNaiveOracle(t *testing.T) {
	halfShare := func(in exposure.Interest) financial.Terms {
		return financial.Terms{Deductible: 0.02 * in.Value, Limit: 0.5 * in.Value, Share: 0.5}
	}
	for _, seed := range []uint64{1, 2, 3, 17} {
		cat, db := smallWorld(t, 600, 60, seed)
		dbs := variants(db, int64(seed))
		for _, factor := range []float64{0, 0.5, 3, 50} {
			engines := map[string]*Engine{"default": New()}
			if factor == 0 {
				engines["custom-terms"] = New()
				engines["custom-terms"].TermsFor = halfShare
				engines["truncated"] = New()
				engines["truncated"].MinMeanLoss = 50_000
				engines["correlated"] = New()
				engines["correlated"].CorrelatedShare = 0.9
			}
			for ename, eng := range engines {
				eng.Hazard.MaxRangeFactor = factor
				for dname, d := range dbs {
					want := naiveRun(eng, cat, d, 9)
					if dname == "generated" && ename == "default" && want.Len() == 0 {
						t.Fatalf("seed %d factor %v: oracle ELT is empty, nothing compared", seed, factor)
					}
					for _, workers := range []int{1, 2, 7} {
						eng.Workers = workers
						got, err := eng.Run(context.Background(), cat, d, 9)
						if err != nil {
							t.Fatal(err)
						}
						requireSameBits(t, fmt.Sprintf("seed %d factor %v engine %s db %s workers %d", seed, factor, ename, dname, workers), got, want)
					}
				}
			}
		}
	}
}

func TestFlattenGroupsInterestsByLocation(t *testing.T) {
	_, db := smallWorld(t, 10, 40, 21)
	for name, d := range variants(db, 21) {
		book, err := flatten(d, nil)
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

// Policy terms come from a caller's callback; ones that fail
// financial.Terms.Validate are an error naming the interest at build
// time, not a silent scaling of every loss the interest takes.
func TestFlattenRejectsInvalidTerms(t *testing.T) {
	_, db := smallWorld(t, 10, 10, 6)
	nan := math.NaN()
	for name, bad := range map[string]financial.Terms{
		"negative deductible": {Deductible: -1},
		"share above one":     {Share: 1.5},
		"NaN deductible":      {Deductible: nan},
		"NaN limit":           {Limit: nan},
		"NaN share":           {Share: nan},
		"infinite limit":      {Limit: math.Inf(1)},
	} {
		calls := 0
		_, err := flatten(db, func(in exposure.Interest) financial.Terms {
			if calls++; calls == 5 {
				return bad
			}
			return standardTerms(in)
		})
		if !errors.Is(err, financial.ErrInvalidTerms) || !strings.Contains(err.Error(), "interest 4") {
			t.Fatalf("%s: want ErrInvalidTerms naming interest 4, got %v", name, err)
		}
	}
	if _, err := flatten(db, nil); err != nil {
		t.Fatalf("standard terms: %v", err)
	}
}
