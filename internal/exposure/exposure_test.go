package exposure

import (
	"math"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumLocations = 200
	a, err := Generate(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Interests) != len(b.Interests) {
		t.Fatal("interest counts differ")
	}
	for i := range a.Interests {
		if a.Interests[i] != b.Interests[i] {
			t.Fatalf("interest %d differs", i)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumLocations = 2000
	cfg.InterestsPerLoc = 3
	db, err := Generate(cfg, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Locations) != 2000 {
		t.Fatalf("locations = %d", len(db.Locations))
	}
	// Poisson(2)+1 per location: expect ~3 on average.
	perLoc := float64(len(db.Interests)) / 2000
	if perLoc < 2.5 || perLoc > 3.5 {
		t.Fatalf("interests per location = %v, want ~3", perLoc)
	}
	var tiv float64
	for _, in := range db.Interests {
		if in.Value <= 0 {
			t.Fatal("non-positive TIV")
		}
		if in.LocationIndex < 0 || in.LocationIndex >= len(db.Locations) {
			t.Fatal("dangling location index")
		}
		tiv += in.Value
	}
	if math.IsInf(tiv, 0) || math.IsNaN(tiv) {
		t.Fatalf("summed TIV %v is not finite", tiv)
	}
}

func TestOccupancyValueScaling(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumLocations = 5000
	cfg.ValueSigma = 0.5
	db, err := Generate(cfg, 23)
	if err != nil {
		t.Fatal(err)
	}
	var resSum, indSum float64
	var resN, indN int
	for _, in := range db.Interests {
		switch in.Occupancy {
		case Residential:
			resSum += in.Value
			resN++
		case Industrial:
			indSum += in.Value
			indN++
		}
	}
	if resN == 0 || indN == 0 {
		t.Fatal("expected both occupancies present")
	}
	if indSum/float64(indN) < 3*resSum/float64(resN) {
		t.Fatalf("industrial mean TIV should be much larger: res=%v ind=%v",
			resSum/float64(resN), indSum/float64(indN))
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{NumLocations: 0}, 1); err == nil {
		t.Error("NumLocations=0 should error")
	}
	cfg := DefaultConfig()
	cfg.ConstructionMix = []float64{1, 0}
	if _, err := Generate(cfg, 1); err == nil {
		t.Error("short ConstructionMix should error")
	}
	cfg = DefaultConfig()
	cfg.OccupancyMix = []float64{1}
	if _, err := Generate(cfg, 1); err == nil {
		t.Error("short OccupancyMix should error")
	}
}

func TestEnumStrings(t *testing.T) {
	if Wood.String() != "wood" || Steel.String() != "steel" {
		t.Error("construction names")
	}
	if Construction(9).String() != "Construction(9)" {
		t.Error("unknown construction")
	}
	if Residential.String() != "residential" || Industrial.String() != "industrial" {
		t.Error("occupancy names")
	}
	if Occupancy(9).String() != "Occupancy(9)" {
		t.Error("unknown occupancy")
	}
}

func TestConstructionMixRespected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumLocations = 3000
	cfg.ConstructionMix = []float64{1, 0, 0, 0} // all wood
	db, err := Generate(cfg, 31)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range db.Interests {
		if in.Construction != Wood {
			t.Fatalf("expected all wood, got %v", in.Construction)
		}
	}
}
