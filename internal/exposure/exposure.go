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

// Config controls synthetic exposure generation.
type Config struct {
	NumLocations     int
	InterestsPerLoc  int // average interests (buildings) per location
	Regions          []catalog.Region
	MeanValue        float64 // mean TIV per interest
	ValueSigma       float64 // lognormal sigma of TIV
	ConstructionMix  []float64
	OccupancyMix     []float64
	ClusterTightness float64 // 0 = uniform in region, 1 = tightly clustered
}

// DefaultConfig returns a laptop-scale exposure configuration.
func DefaultConfig() Config {
	return Config{
		NumLocations:     1000,
		InterestsPerLoc:  3,
		Regions:          catalog.DefaultRegions(),
		MeanValue:        2_000_000,
		ValueSigma:       1.0,
		ConstructionMix:  []float64{0.45, 0.25, 0.20, 0.10},
		OccupancyMix:     []float64{0.60, 0.30, 0.10},
		ClusterTightness: 0.6,
	}
}

// Generate builds a deterministic synthetic exposure database.
func Generate(cfg Config, seed uint64) (*Database, error) {
	if cfg.NumLocations <= 0 {
		return nil, fmt.Errorf("exposure: NumLocations must be positive, got %d", cfg.NumLocations)
	}
	if cfg.InterestsPerLoc <= 0 {
		cfg.InterestsPerLoc = 1
	}
	if len(cfg.Regions) == 0 {
		cfg.Regions = catalog.DefaultRegions()
	}
	if len(cfg.ConstructionMix) == 0 {
		cfg.ConstructionMix = DefaultConfig().ConstructionMix
	}
	if len(cfg.ConstructionMix) != NumConstruction {
		return nil, fmt.Errorf("exposure: ConstructionMix needs %d entries", NumConstruction)
	}
	if len(cfg.OccupancyMix) == 0 {
		cfg.OccupancyMix = DefaultConfig().OccupancyMix
	}
	if len(cfg.OccupancyMix) != NumOccupancy {
		return nil, fmt.Errorf("exposure: OccupancyMix needs %d entries", NumOccupancy)
	}
	if cfg.MeanValue <= 0 {
		cfg.MeanValue = DefaultConfig().MeanValue
	}

	regionWeights := make([]float64, len(cfg.Regions))
	for i, r := range cfg.Regions {
		regionWeights[i] = r.RelativeExposureWeight
	}
	regionAlias, err := rng.NewAlias(regionWeights)
	if err != nil {
		return nil, fmt.Errorf("exposure: region weights: %w", err)
	}
	consAlias, err := rng.NewAlias(cfg.ConstructionMix)
	if err != nil {
		return nil, fmt.Errorf("exposure: construction mix: %w", err)
	}
	occAlias, err := rng.NewAlias(cfg.OccupancyMix)
	if err != nil {
		return nil, fmt.Errorf("exposure: occupancy mix: %w", err)
	}

	st := rng.NewStream(seed, 0xE8905)
	db := &Database{
		Locations: make([]Location, cfg.NumLocations),
		Interests: make([]Interest, 0, cfg.NumLocations*cfg.InterestsPerLoc),
	}

	// Pre-draw one urban cluster centre per region; ClusterTightness
	// interpolates each location between the cluster centre and a
	// uniform point, mimicking the concentration of insured value in
	// cities that makes single events so punishing.
	type centre struct{ lat, lon float64 }
	centres := make([]centre, len(cfg.Regions))
	for i, r := range cfg.Regions {
		centres[i] = centre{
			lat: r.LatMin + st.Float64()*(r.LatMax-r.LatMin),
			lon: r.LonMin + st.Float64()*(r.LonMax-r.LonMin),
		}
	}

	// Lognormal TIV parameters from mean and sigma.
	sigma := cfg.ValueSigma
	if sigma <= 0 {
		sigma = 1.0
	}
	// mean = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2
	mu := lnMean(cfg.MeanValue, sigma)

	for i := range db.Locations {
		ri := regionAlias.Draw(st)
		r := cfg.Regions[ri]
		ulat := r.LatMin + st.Float64()*(r.LatMax-r.LatMin)
		ulon := r.LonMin + st.Float64()*(r.LonMax-r.LonMin)
		t := cfg.ClusterTightness
		loc := Location{
			ID:       uint32(i + 1),
			RegionID: r.ID,
			Lat:      ulat*(1-t) + centres[ri].lat*t + st.Normal(0, 0.15),
			Lon:      ulon*(1-t) + centres[ri].lon*t + st.Normal(0, 0.15),
		}
		db.Locations[i] = loc

		n := 1 + st.Poisson(float64(cfg.InterestsPerLoc-1))
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
				Value:         st.LogNormal(mu, sigma) * valScale,
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
