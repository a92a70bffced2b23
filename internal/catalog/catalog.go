// Package catalog implements the stochastic event catalogue — the
// first primary input to catastrophe models (§II of the paper):
// "mathematical representations of natural occurrence patterns and
// characteristics of catastrophes such as earthquakes".
//
// A Catalog is a fixed set of synthetic events, each with a peril, a
// geographic footprint anchor, severity parameters, and an annual
// occurrence rate. Catalogues are generated deterministically from a
// seed so the entire pipeline is replayable.
package catalog

import (
	"fmt"

	"repro/internal/rng"
)

// Peril identifies the class of catastrophe an event belongs to.
type Peril uint8

// The perils modelled by the synthetic catalogue. The mix follows the
// classic reinsurance book: earthquake and hurricane dominate tail
// risk, flood and winter storm add frequency.
const (
	Earthquake Peril = iota
	Hurricane
	Flood
	WinterStorm
	Tornado
	numPerils
)

// NumPerils is the number of distinct perils.
const NumPerils = int(numPerils)

// String returns the peril's display name.
func (p Peril) String() string {
	switch p {
	case Earthquake:
		return "EQ"
	case Hurricane:
		return "HU"
	case Flood:
		return "FL"
	case WinterStorm:
		return "WS"
	case Tornado:
		return "TO"
	default:
		return fmt.Sprintf("Peril(%d)", uint8(p))
	}
}

// Region is a rectangular geographic territory events and exposures
// are placed in.
type Region struct {
	ID                     uint16
	Name                   string
	LatMin, LatMax         float64
	LonMin, LonMax         float64
	RelativeEventDensity   float64 // share of events placed here
	RelativeExposureWeight float64 // share of insured value located here
}

// DefaultRegions returns the stylized three-territory world every
// catalogue and exposure database is placed in — a peak-zone coastal
// region, a continental interior and a secondary zone — enough
// geographic structure for hazard attenuation to matter without
// real-world map data (which is proprietary at model-vendor
// resolution).
func DefaultRegions() []Region {
	return []Region{
		{ID: 0, Name: "CoastalPeak", LatMin: 24, LatMax: 32, LonMin: -98, LonMax: -80, RelativeEventDensity: 0.5, RelativeExposureWeight: 0.45},
		{ID: 1, Name: "Interior", LatMin: 32, LatMax: 46, LonMin: -104, LonMax: -86, RelativeEventDensity: 0.3, RelativeExposureWeight: 0.35},
		{ID: 2, Name: "Secondary", LatMin: 34, LatMax: 44, LonMin: -124, LonMax: -114, RelativeEventDensity: 0.2, RelativeExposureWeight: 0.20},
	}
}

// Event is one stochastic catastrophe scenario.
type Event struct {
	ID         uint32
	Peril      Peril
	RegionID   uint16
	Lat, Lon   float64 // footprint anchor (epicenter / landfall / storm centroid)
	Magnitude  float64 // peril-specific severity scalar (Mw for EQ, Vmax m/s for HU, ...)
	RadiusKm   float64 // footprint extent
	AnnualRate float64 // Poisson occurrence rate per contractual year
}

// Catalog is an immutable set of events with precomputed aggregates.
type Catalog struct {
	Events    []Event
	totalRate float64
	index     map[uint32]int
}

// Config controls synthetic catalogue generation. Events are placed in
// DefaultRegions by their RelativeEventDensity and drawn from perilMix.
type Config struct {
	NumEvents int
	// MeanEventsPerYear scales occurrence rates so that the whole
	// catalogue produces on average this many occurrences a year.
	MeanEventsPerYear float64
}

// perilMix is the probability of each peril, in Peril order.
var perilMix = [NumPerils]float64{0.25, 0.20, 0.25, 0.20, 0.10}

// DefaultConfig returns a laptop-scale catalogue configuration. The
// paper's production-scale catalogues hold ~100,000 events; tests and
// examples default to thousands and the benches sweep upward.
func DefaultConfig() Config {
	return Config{
		NumEvents:         10_000,
		MeanEventsPerYear: 10,
	}
}

// Generate builds a deterministic catalogue from cfg and seed.
func Generate(cfg Config, seed uint64) (*Catalog, error) {
	if cfg.NumEvents <= 0 {
		return nil, fmt.Errorf("catalog: NumEvents must be positive, got %d", cfg.NumEvents)
	}
	if cfg.MeanEventsPerYear <= 0 {
		cfg.MeanEventsPerYear = 10
	}

	perilAlias, err := rng.NewAlias(perilMix[:])
	if err != nil {
		return nil, fmt.Errorf("catalog: peril mix: %w", err)
	}
	regions := DefaultRegions()
	regionWeights := make([]float64, len(regions))
	for i, r := range regions {
		regionWeights[i] = r.RelativeEventDensity
	}
	regionAlias, err := rng.NewAlias(regionWeights)
	if err != nil {
		return nil, fmt.Errorf("catalog: region densities: %w", err)
	}

	st := rng.NewStream(seed, 0xCA7A106)
	events := make([]Event, cfg.NumEvents)
	var rateSum float64
	for i := range events {
		p := Peril(perilAlias.Draw(st))
		reg := regions[regionAlias.Draw(st)]
		ev := Event{
			ID:       uint32(i + 1), // IDs are 1-based; 0 is reserved as "no event"
			Peril:    p,
			RegionID: reg.ID,
			Lat:      reg.LatMin + float64(st.Float64()*(reg.LatMax-reg.LatMin)),
			Lon:      reg.LonMin + float64(st.Float64()*(reg.LonMax-reg.LonMin)),
		}
		switch p {
		case Earthquake:
			// Gutenberg-Richter-like magnitude-frequency: small quakes
			// common, big ones rare.
			ev.Magnitude = 5.0 + st.TruncPareto(1, 1.4, 4.5) - 1 // Mw in [5, 8.5)
			ev.RadiusKm = 20 + float64(25*(ev.Magnitude-5))
			ev.AnnualRate = 3e-3 / (1 + float64((ev.Magnitude-5)*(ev.Magnitude-5)))
		case Hurricane:
			ev.Magnitude = 33 + float64(st.TruncPareto(1, 2.0, 2.6)*10) - 10 // Vmax m/s in [33, 59)
			ev.RadiusKm = 80 + float64(st.Float64()*220)
			ev.AnnualRate = 2e-3 * (40 / ev.Magnitude)
		case Flood:
			ev.Magnitude = 0.5 + st.Gamma(2, 0.8) // depth metres
			ev.RadiusKm = 10 + float64(st.Float64()*60)
			ev.AnnualRate = 4e-3
		case WinterStorm:
			ev.Magnitude = 20 + st.Gamma(3, 3) // gust m/s
			ev.RadiusKm = 150 + float64(st.Float64()*350)
			ev.AnnualRate = 3e-3
		case Tornado:
			ev.Magnitude = 1 + st.TruncPareto(1, 2.5, 5) - 1 // EF-scale-ish [1, 5)
			ev.RadiusKm = 2 + float64(st.Float64()*10)
			ev.AnnualRate = 5e-3 / ev.Magnitude
		}
		rateSum += ev.AnnualRate
		events[i] = ev
	}
	// Normalize total rate to the requested mean events/year.
	scale := cfg.MeanEventsPerYear / rateSum
	for i := range events {
		events[i].AnnualRate *= scale
	}

	return NewCatalog(events), nil
}

// NewCatalog wraps a prebuilt event set and computes its aggregates.
func NewCatalog(events []Event) *Catalog {
	c := &Catalog{Events: events, index: make(map[uint32]int, len(events))}
	for i, ev := range events {
		c.totalRate += ev.AnnualRate
		c.index[ev.ID] = i
	}
	return c
}

// Len returns the number of events.
func (c *Catalog) Len() int { return len(c.Events) }

// TotalRate returns the summed annual occurrence rate — the expected
// number of catastrophes per contractual year across the catalogue.
func (c *Catalog) TotalRate() float64 { return c.totalRate }

// Lookup returns the event with the given ID.
func (c *Catalog) Lookup(id uint32) (Event, bool) {
	i, ok := c.index[id]
	if !ok {
		return Event{}, false
	}
	return c.Events[i], true
}

// Rates returns the annual-rate vector aligned with Events, used to
// build occurrence samplers (alias tables) in the YELT generator.
func (c *Catalog) Rates() []float64 {
	rates := make([]float64, len(c.Events))
	for i, ev := range c.Events {
		rates[i] = ev.AnnualRate
	}
	return rates
}
