package catmodel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/catalog"
	"repro/internal/exposure"
	"repro/internal/mathx"
	"repro/internal/stream"
)

// PostEvent is a book prepared for rapid post-event loss estimation —
// the operational companion of stage 1 that the authors describe in
// "Rapid Post-Event Catastrophe Modelling and Visualisation" (paper
// reference [2]): when a real catastrophe strikes, the book must be
// re-priced against the observed event in seconds, not in the weekly
// batch cycle. Each database is flattened once; an estimate then makes,
// per book, the two calls Run makes per event (Footprint, then gather),
// so both answer "which interests does this event reach" the same way.
// Safe for concurrent Estimate calls.
type PostEvent struct {
	eng       Engine
	books     []*book
	interests int
}

// PostEvent prepares the exposure databases for Estimate under the
// engine's hazard model and worker count, as they are now. No
// databases, or no interests in them, is an error.
func (e *Engine) PostEvent(dbs []*exposure.Database) (*PostEvent, error) {
	if len(dbs) == 0 {
		return nil, errors.New("catmodel: no exposure databases")
	}
	p := &PostEvent{eng: *e, books: make([]*book, len(dbs))}
	for k, db := range dbs {
		b, err := flatten(db)
		if err != nil {
			return nil, fmt.Errorf("catmodel: database %d: %w", k, err)
		}
		p.books[k] = b
		p.interests += len(b.value)
	}
	if p.interests == 0 {
		return nil, errors.New("catmodel: databases contain no interests")
	}
	return p, nil
}

// Sites returns the number of prepared insured interests.
func (p *PostEvent) Sites() int { return p.interests }

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

// postEventSums is one book's share of an estimate.
type postEventSums struct {
	sites                        int
	exposed, guMean, gMean, gVar float64
}

// Estimate prices ev against every book, the books on the engine's
// Workers goroutines. Each book sums its interests in ascending order
// into a slot of its own, and the slots are added in book order, so the
// result does not depend on the worker count; for one database
// GrossMean is bit for bit the MeanLoss of ev's record in Run's ELT.
// An interest counts towards SitesTouched and ExposedValue wherever it
// takes damage, even where Run skips it for gross moments that are both
// zero, and GrossSD treats the interests as independent.
func (p *PostEvent) Estimate(ctx context.Context, ev catalog.Event) (*Estimate, error) {
	start := time.Now()
	parts := make([]postEventSums, len(p.books))
	err := stream.ForEach(ctx, len(p.books), p.eng.Workers, func(_ context.Context, k int) error {
		b, acc := p.books[k], &parts[k]
		for _, f := range b.gather(p.eng.Hazard.Footprint(ev, b.sites, nil), nil) {
			i := f.interest
			mdr, sd := vuln.DamageMoments(ev.Peril, b.construction[i], f.intensity)
			if mdr <= 0 {
				continue
			}
			gu := float64(mdr * b.value[i])
			gm, gsd := b.terms[i].ApplyMoments(gu, sd*b.value[i])
			acc.sites++
			acc.exposed += b.value[i]
			acc.guMean += gu
			acc.gMean += gm
			acc.gVar += float64(gsd * gsd)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var total postEventSums
	for _, s := range parts {
		total.sites += s.sites
		total.exposed += s.exposed
		total.guMean += s.guMean
		total.gMean += s.gMean
		total.gVar += s.gVar
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
		Low:          mathx.Clamp(total.gMean-float64(z*sd), 0, math.Inf(1)),
		High:         total.gMean + float64(z*sd),
		Elapsed:      time.Since(start),
	}, nil
}
