// Package exposure implements the exposure database — the second
// primary input to catastrophe models (§II): "description of
// attributes such as construction type or value of buildings exposed
// to the catastrophe in a location".
//
// Real exposure databases are confidential client data; this package
// generates synthetic ones with the same schema and statistical shape
// (clustered locations, lognormal insured values, realistic
// construction/occupancy mixes), deterministically from a seed.
package exposure

import (
	"fmt"
	"math"

	"repro/internal/catalog"
	"repro/internal/rng"
)

// Construction is the structural class of a building, the main driver
// of vulnerability.
type Construction uint8

// Construction classes in rough order of catastrophe resilience.
const (
	Wood Construction = iota
	Masonry
	Concrete
	Steel
	numConstruction
)

// NumConstruction is the number of construction classes.
const NumConstruction = int(numConstruction)

// String returns the class name.
func (c Construction) String() string {
	switch c {
	case Wood:
		return "wood"
	case Masonry:
		return "masonry"
	case Concrete:
		return "concrete"
	case Steel:
		return "steel"
	default:
		return fmt.Sprintf("Construction(%d)", uint8(c))
	}
}

// Occupancy is the use class of a building, which drives insured value
// scale and line of business.
type Occupancy uint8

// Occupancy classes.
const (
	Residential Occupancy = iota
	Commercial
	Industrial
	numOccupancy
)

// NumOccupancy is the number of occupancy classes.
const NumOccupancy = int(numOccupancy)

// String returns the occupancy name.
func (o Occupancy) String() string {
	switch o {
	case Residential:
		return "residential"
	case Commercial:
		return "commercial"
	case Industrial:
		return "industrial"
	default:
		return fmt.Sprintf("Occupancy(%d)", uint8(o))
	}
}

// Location is a geocoded site holding insured interests.
type Location struct {
	ID       uint32
	RegionID uint16
	Lat, Lon float64
}

// Interest is one insured building (or schedule line) at a location.
type Interest struct {
	LocationIndex int // index into Database.Locations
	Construction  Construction
	Occupancy     Occupancy
	Value         float64 // total insured value (TIV)
}

// Database is an exposure database: locations plus the interests at
// them. It corresponds to the exposure input of one cedant/contract.
type Database struct {
	Locations []Location
	Interests []Interest
}

// Config controls synthetic exposure generation. Locations are placed
// in catalog.DefaultRegions by their RelativeExposureWeight, clustered
// by clusterTightness, and hold 1 + Poisson(interestsPerLoc−1)
// interests each, drawn from constructionMix and occupancyMix with a
// lognormal TIV of mean meanValue and sigma valueSigma (scaled by
// occupancy).
type Config struct {
	NumLocations int
}

// The shape of every generated database.
const (
	interestsPerLoc  = 3         // average interests (buildings) per location
	meanValue        = 2_000_000 // mean TIV per residential interest
	valueSigma       = 1.0       // lognormal sigma of TIV
	clusterTightness = 0.6       // 0 = uniform in region, 1 = tightly clustered
)

var (
	constructionMix = [NumConstruction]float64{0.45, 0.25, 0.20, 0.10}
	occupancyMix    = [NumOccupancy]float64{0.60, 0.30, 0.10}
)

// DefaultConfig returns a laptop-scale exposure configuration.
func DefaultConfig() Config {
	return Config{NumLocations: 1000}
}

// Generate builds a deterministic synthetic exposure database.
func Generate(cfg Config, seed uint64) (*Database, error) {
	if cfg.NumLocations <= 0 {
		return nil, fmt.Errorf("exposure: NumLocations must be positive, got %d", cfg.NumLocations)
	}

	regions := catalog.DefaultRegions()
	regionWeights := make([]float64, len(regions))
	for i, r := range regions {
		regionWeights[i] = r.RelativeExposureWeight
	}
	regionAlias, err := rng.NewAlias(regionWeights)
	if err != nil {
		return nil, fmt.Errorf("exposure: region weights: %w", err)
	}
	consAlias, err := rng.NewAlias(constructionMix[:])
	if err != nil {
		return nil, fmt.Errorf("exposure: construction mix: %w", err)
	}
	occAlias, err := rng.NewAlias(occupancyMix[:])
	if err != nil {
		return nil, fmt.Errorf("exposure: occupancy mix: %w", err)
	}

	st := rng.NewStream(seed, 0xE8905)
	db := &Database{
		Locations: make([]Location, cfg.NumLocations),
		Interests: make([]Interest, 0, cfg.NumLocations*interestsPerLoc),
	}

	// Pre-draw one urban cluster centre per region; clusterTightness
	// interpolates each location between the cluster centre and a
	// uniform point, mimicking the concentration of insured value in
	// cities that makes single events so punishing.
	type centre struct{ lat, lon float64 }
	centres := make([]centre, len(regions))
	for i, r := range regions {
		centres[i] = centre{
			lat: r.LatMin + float64(st.Float64()*(r.LatMax-r.LatMin)),
			lon: r.LonMin + float64(st.Float64()*(r.LonMax-r.LonMin)),
		}
	}

	// Lognormal TIV parameters from mean and sigma:
	// mean = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2
	mu := lnMean(meanValue, valueSigma)

	for i := range db.Locations {
		ri := regionAlias.Draw(st)
		r := regions[ri]
		ulat := r.LatMin + float64(st.Float64()*(r.LatMax-r.LatMin))
		ulon := r.LonMin + float64(st.Float64()*(r.LonMax-r.LonMin))
		t := clusterTightness
		loc := Location{
			ID:       uint32(i + 1),
			RegionID: r.ID,
			Lat:      float64(ulat*(1-t)) + float64(centres[ri].lat*t) + st.Normal(0, 0.15),
			Lon:      float64(ulon*(1-t)) + float64(centres[ri].lon*t) + st.Normal(0, 0.15),
		}
		db.Locations[i] = loc

		n := 1 + st.Poisson(interestsPerLoc-1)
		for k := 0; k < n; k++ {
			occ := Occupancy(occAlias.Draw(st))
			valScale := 1.0
			switch occ {
			case Commercial:
				valScale = 4
			case Industrial:
				valScale = 10
			}
			in := Interest{
				LocationIndex: i,
				Construction:  Construction(consAlias.Draw(st)),
				Occupancy:     occ,
				Value:         st.LogNormal(mu, valueSigma) * valScale,
			}
			db.Interests = append(db.Interests, in)
		}
	}
	return db, nil
}

// lnMean returns the lognormal location parameter mu that yields the
// target arithmetic mean for the given sigma.
func lnMean(mean, sigma float64) float64 {
	return math.Log(mean) - sigma*sigma/2
}
