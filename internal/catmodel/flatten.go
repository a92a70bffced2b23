package catmodel

import (
	"fmt"
	"sort"

	"repro/internal/exposure"
	"repro/internal/financial"
	"repro/internal/hazard"
)

// book is one exposure database flattened for the per-event kernels
// (Engine.Run and PostEvent.Estimate): the locations as a hazard site
// table, the interests as parallel columns — the "organise data in
// large flat tables" idiom from the paper, in miniature.
type book struct {
	sites *hazard.Sites // one per location

	// One entry per interest, in the database's order.
	value        []float64
	construction []exposure.Construction
	terms        []financial.Terms

	// The interests at location l are start[l]..start[l+1]: of the
	// interest columns themselves when the database lists its interests
	// by ascending location (generated ones do), else of byLocation,
	// which lists them so.
	start      []int
	byLocation []int
}

// standardTerms are the policy terms every interest is priced under:
// standard terms by occupancy.
func standardTerms(in exposure.Interest) financial.Terms {
	switch in.Occupancy {
	case exposure.Commercial, exposure.Industrial:
		return financial.StandardCommercial(in.Value)
	default:
		return financial.StandardResidential(in.Value)
	}
}

// flatten lays db out as a book under standard terms. It is where a
// database is checked: an interest that names a location or a
// construction class that does not exist is an error here, not an
// index out of range in a kernel, and so is a value whose terms fail
// financial.Terms.Validate, which would otherwise scale every loss of
// the interest silently.
func flatten(db *exposure.Database) (*book, error) {
	nLoc, n := len(db.Locations), len(db.Interests)
	b := &book{
		sites: hazard.NewSites(nLoc, func(i int) (lat, lon float64) {
			return db.Locations[i].Lat, db.Locations[i].Lon
		}),
		value:        make([]float64, n),
		construction: make([]exposure.Construction, n),
		terms:        make([]financial.Terms, n),
		start:        make([]int, nLoc+1),
	}
	grouped := true
	for i, in := range db.Interests {
		l := in.LocationIndex
		if l < 0 || l >= nLoc {
			return nil, fmt.Errorf("catmodel: interest %d refers to location %d of %d", i, l, nLoc)
		}
		if int(in.Construction) >= exposure.NumConstruction {
			return nil, fmt.Errorf("catmodel: interest %d has unknown construction class %d", i, in.Construction)
		}
		if i > 0 && l < db.Interests[i-1].LocationIndex {
			grouped = false
		}
		b.value[i] = in.Value
		b.construction[i] = in.Construction
		b.terms[i] = standardTerms(in)
		if err := b.terms[i].Validate(); err != nil {
			return nil, fmt.Errorf("catmodel: interest %d: %w", i, err)
		}
		b.start[l+1]++
	}
	for l := 0; l < nLoc; l++ {
		b.start[l+1] += b.start[l]
	}
	if !grouped {
		// Counting sort: each location's slots fill in interest order.
		b.byLocation = make([]int, n)
		next := append([]int(nil), b.start[:nLoc]...)
		for i, in := range db.Interests {
			l := in.LocationIndex
			b.byLocation[next[l]] = i
			next[l]++
		}
	}
	return b, nil
}

// feltInterest is one (event, interest) pair the kernel has to price.
type feltInterest struct {
	interest  int
	intensity hazard.Intensity
}

// gather appends to out[:0] the interests at the felt sites, each with
// its site's intensity, in ascending interest order: the order the ELT
// sums have always been accumulated in, which keeps them bit-identical
// whatever the order of the database.
func (b *book) gather(felt []hazard.Felt, out []feltInterest) []feltInterest {
	out = out[:0]
	for _, f := range felt {
		for k := b.start[f.Site]; k < b.start[f.Site+1]; k++ {
			i := k
			if b.byLocation != nil {
				i = b.byLocation[k]
			}
			out = append(out, feltInterest{i, f.Intensity})
		}
	}
	if b.byLocation != nil {
		sort.Slice(out, func(x, y int) bool { return out[x].interest < out[y].interest })
	}
	return out
}
