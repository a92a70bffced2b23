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

// The construction and occupancy classes of a generated database are
// drawn from the documented mixes, written out here rather than read
// from constructionMix and occupancyMix: at a fixed seed every class's
// count is within five binomial standard deviations,
// 5·√(n·p·(1−p)), of n·p over the n interests. Two entries of either mix
// swapped move both their counts by at least 0.05·n (the closest entries
// differ by 0.05), over twice their bounds at this size (n ≈ 9 000).
func TestConstructionMixRespected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumLocations = 3000
	db, err := Generate(cfg, 31)
	if err != nil {
		t.Fatal(err)
	}
	var cons [NumConstruction]int
	var occ [NumOccupancy]int
	for _, in := range db.Interests {
		cons[in.Construction]++
		occ[in.Occupancy]++
	}
	n := float64(len(db.Interests))
	check := func(what string, counts []int, mix []float64) {
		for k, c := range counts {
			p := mix[k]
			if bound := 5 * math.Sqrt(n*p*(1-p)); math.Abs(float64(c)-n*p) > bound {
				t.Errorf("%s class %d: %d of %.0f interests, want %.0f ± %.0f", what, k, c, n, n*p, bound)
			}
		}
	}
	check("construction", cons[:], []float64{0.45, 0.25, 0.20, 0.10})
	check("occupancy", occ[:], []float64{0.60, 0.30, 0.10})
}
