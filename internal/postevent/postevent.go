// Package postevent implements rapid post-event loss estimation — the
// operational companion of stage 1 that the authors describe in
// "Rapid Post-Event Catastrophe Modelling and Visualisation" (paper
// reference [2]): when a real catastrophe strikes, the book must be
// re-priced against the observed footprint in seconds, not in the
// weekly batch cycle.
//
// The estimator flattens the portfolio's exposures once into columnar
// arrays and a spatial grid index; each incoming event then touches
// only the grid cells inside its footprint, evaluated by a parallel
// worker pool. A full-scan path without the index exists for
// benchmarking the indexing gain.
package postevent

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/catalog"
	"repro/internal/catmodel"
	"repro/internal/exposure"
	"repro/internal/financial"
	"repro/internal/hazard"
	"repro/internal/mathx"
	"repro/internal/stream"
	"repro/internal/vulnerability"
)

// cellDegrees is the spatial grid pitch. One degree of latitude is
// ~111 km, the same order as large-event footprints, so footprints
// touch a handful of cells.
const cellDegrees = 1.0

type cellKey struct{ lat, lon int16 }

func keyOf(lat, lon float64) cellKey {
	return cellKey{int16(math.Floor(lat / cellDegrees)), int16(math.Floor(lon / cellDegrees))}
}

// Estimator holds the prepared portfolio. Create once with New; safe
// for concurrent Estimate calls.
type Estimator struct {
	Hazard hazard.Model
	Vuln   *vulnerability.Matrix

	lats, lons []float64
	values     []float64
	cons       []exposure.Construction
	terms      []financial.Terms
	grid       map[cellKey][]int32
}

// New prepares an estimator over the given exposure databases.
// termsFor selects policy terms per interest; nil applies standard
// terms by occupancy (as the stage-1 engine does).
func New(dbs []*exposure.Database, termsFor func(exposure.Interest) financial.Terms) (*Estimator, error) {
	if len(dbs) == 0 {
		return nil, errors.New("postevent: no exposure databases")
	}
	e := &Estimator{
		Vuln: vulnerability.Default(),
		grid: make(map[cellKey][]int32),
	}
	for k, db := range dbs {
		book, err := catmodel.Flatten(db, termsFor)
		if err != nil {
			return nil, fmt.Errorf("postevent: database %d: %w", k, err)
		}
		for _, l := range book.Location {
			lat, lon := book.Sites.At(l)
			cell := keyOf(lat, lon)
			e.grid[cell] = append(e.grid[cell], int32(len(e.lats)))
			e.lats = append(e.lats, lat)
			e.lons = append(e.lons, lon)
		}
		e.values = append(e.values, book.Value...)
		e.cons = append(e.cons, book.Construction...)
		e.terms = append(e.terms, book.Terms...)
	}
	if len(e.lats) == 0 {
		return nil, errors.New("postevent: databases contain no interests")
	}
	return e, nil
}

// Sites returns the number of indexed insured interests.
func (e *Estimator) Sites() int { return len(e.lats) }

// Estimate is a rapid loss estimate for one realized event.
type Estimate struct {
	EventID      uint32
	SitesTouched int
	ExposedValue float64 // insured value inside the footprint
	GroundUpMean float64
	GrossMean    float64
	GrossSD      float64
	// Low/High are a ±1.645σ (90%) band around the gross mean,
	// floored at zero.
	Low, High float64
	Elapsed   time.Duration
}

// Estimate evaluates the event against the indexed footprint cells.
func (e *Estimator) Estimate(ctx context.Context, ev catalog.Event) (*Estimate, error) {
	start := time.Now()
	idxs := e.candidates(ev)
	est, err := e.evaluate(ctx, ev, idxs)
	if err != nil {
		return nil, err
	}
	est.Elapsed = time.Since(start)
	return est, nil
}

// EstimateFullScan evaluates the event against every site, bypassing
// the spatial index — the baseline the index is measured against.
func (e *Estimator) EstimateFullScan(ctx context.Context, ev catalog.Event) (*Estimate, error) {
	start := time.Now()
	est, err := e.evaluate(ctx, ev, e.allSites())
	if err != nil {
		return nil, err
	}
	est.Elapsed = time.Since(start)
	return est, nil
}

// candidates returns site indices in grid cells intersecting the
// event's footprint: the cells of the latitude/longitude box around
// the cap of hazard's felt radius, the same radius the stage-1 kernel
// culls with. Cells do not wrap at ±180° longitude.
func (e *Estimator) candidates(ev catalog.Event) []int32 {
	const deg = math.Pi / 180
	// A hair wider than the radius, so a site DistanceKm rounds to just
	// inside it is never in a cell just outside the box.
	theta := e.Hazard.FeltRadiusKm(ev) / hazard.EarthRadiusKm * (1 + 1e-9)
	if theta < 0 {
		return nil
	}
	dLat := theta / deg
	if !(math.Abs(ev.Lat)+dLat < 90 && math.Abs(ev.Lon) <= 360) {
		// The cap reaches a pole, covers the globe, or the event has no
		// usable position: no box bounds it.
		return e.allSites()
	}
	// The cap's meridians of tangency: sin Δλ = sin θ / cos φ.
	dLon := math.Asin(math.Sin(theta)/math.Cos(ev.Lat*deg)) / deg
	var out []int32
	lo := keyOf(ev.Lat-dLat, ev.Lon-dLon)
	hi := keyOf(ev.Lat+dLat, ev.Lon+dLon)
	for la := lo.lat; la <= hi.lat; la++ {
		for lo := lo.lon; lo <= hi.lon; lo++ {
			out = append(out, e.grid[cellKey{la, lo}]...)
		}
	}
	return out
}

func (e *Estimator) allSites() []int32 {
	idxs := make([]int32, len(e.lats))
	for i := range idxs {
		idxs[i] = int32(i)
	}
	return idxs
}

type partialEstimate struct {
	sites   int
	exposed float64
	guMean  float64
	gMean   float64
	gVar    float64
}

func (e *Estimator) evaluate(ctx context.Context, ev catalog.Event, idxs []int32) (*Estimate, error) {
	vuln := e.Vuln
	if vuln == nil {
		vuln = vulnerability.Default()
	}
	// Footprint evaluation runs on GOMAXPROCS workers.
	total, err := stream.MapReduceLocal(ctx, len(idxs), 0,
		func() *partialEstimate { return &partialEstimate{} },
		func(_ context.Context, r stream.Range, acc *partialEstimate) error {
			for k := r.Lo; k < r.Hi; k++ {
				i := idxs[k]
				inten := e.Hazard.IntensityAt(ev, e.lats[i], e.lons[i])
				if inten <= 0 {
					continue
				}
				mdr, sd := vuln.DamageMoments(ev.Peril, e.cons[i], inten)
				if mdr <= 0 {
					continue
				}
				gu := mdr * e.values[i]
				guSD := sd * e.values[i]
				gm, gsd := e.terms[i].ApplyMoments(gu, guSD)
				acc.sites++
				acc.exposed += e.values[i]
				acc.guMean += gu
				acc.gMean += gm
				acc.gVar += gsd * gsd // site-independent approximation
			}
			return nil
		},
		func(into, from *partialEstimate) {
			into.sites += from.sites
			into.exposed += from.exposed
			into.guMean += from.guMean
			into.gMean += from.gMean
			into.gVar += from.gVar
		},
	)
	if err != nil {
		return nil, err
	}
	sd := math.Sqrt(total.gVar)
	z := 1.6448536269514722 // Φ⁻¹(0.95)
	return &Estimate{
		EventID:      ev.ID,
		SitesTouched: total.sites,
		ExposedValue: total.exposed,
		GroundUpMean: total.guMean,
		GrossMean:    total.gMean,
		GrossSD:      sd,
		Low:          mathx.Clamp(total.gMean-z*sd, 0, math.Inf(1)),
		High:         total.gMean + z*sd,
	}, nil
}
