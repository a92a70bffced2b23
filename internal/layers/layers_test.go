package layers

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestApplyOccurrenceKnown(t *testing.T) {
	l := Layer{OccRetention: 100, OccLimit: 500}
	cases := []struct{ in, want float64 }{
		{0, 0}, {100, 0}, {150, 50}, {600, 500}, {10_000, 500},
	}
	for _, c := range cases {
		if got := l.ApplyOccurrence(c.in); got != c.want {
			t.Errorf("ApplyOccurrence(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestApplyOccurrenceUnlimited(t *testing.T) {
	l := Layer{OccRetention: 100}
	if got := l.ApplyOccurrence(1e9); got != 1e9-100 {
		t.Fatalf("unlimited layer capped: %v", got)
	}
}

func TestApplyAggregateKnown(t *testing.T) {
	l := Layer{AggRetention: 1000, AggLimit: 2000, Share: 0.5}
	cases := []struct{ in, want float64 }{
		{500, 0}, {1000, 0}, {1500, 250}, {3000, 1000}, {99_999, 1000},
	}
	for _, c := range cases {
		if got := l.ApplyAggregate(c.in); got != c.want {
			t.Errorf("ApplyAggregate(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// A NaN annual sum or a NaN aggregate retention pays +0, in the Layer
// method and over the flat columns alike: no comparison with NaN
// holds, so neither exceeds the retention. The trial kernel's annual
// clamp reads them the same way, which lets it leave a layer no
// occurrence touched unvisited.
func TestApplyAggregateNaNPaysNothing(t *testing.T) {
	nan := math.NaN()
	layersWith := []Layer{{AggRetention: nan}, {AggRetention: nan, AggLimit: 50, Share: 0.5}, {AggRetention: 10}}
	ft, err := FlattenTerms(&Portfolio{Contracts: []Contract{{ID: 1, Layers: layersWith}}})
	if err != nil {
		t.Fatal(err)
	}
	for fl, l := range layersWith {
		sums := []float64{nan, 0, 1e6}
		if !math.IsNaN(l.AggRetention) {
			sums = sums[:1]
		}
		for _, sum := range sums {
			if got := l.ApplyAggregate(sum); math.Float64bits(got) != 0 {
				t.Errorf("layer %+v: ApplyAggregate(%v) = %v, want +0", l, sum, got)
			}
			if got := ft.ApplyAggregate(int32(fl), sum); math.Float64bits(got) != 0 {
				t.Errorf("slot %d: ApplyAggregate(%v) = %v, want +0", fl, sum, got)
			}
		}
	}
}

// A NaN occurrence loss or retention pays +0, the trial kernel's
// reading of its inlined clamp (loss > ret), through Layer and FlatTerms
// alike.
func TestApplyOccurrenceNaNPaysNothing(t *testing.T) {
	nan := math.NaN()
	layersWith := []Layer{{OccRetention: nan}, {OccRetention: nan, OccLimit: 50}, {OccRetention: 10, OccLimit: 40}}
	ft, err := FlattenTerms(&Portfolio{Contracts: []Contract{{ID: 1, Layers: layersWith}}})
	if err != nil {
		t.Fatal(err)
	}
	for fl, l := range layersWith {
		losses := []float64{nan, 0, 1e6}
		if !math.IsNaN(l.OccRetention) {
			losses = losses[:1]
		}
		for _, loss := range losses {
			if got := l.ApplyOccurrence(loss); math.Float64bits(got) != 0 {
				t.Errorf("layer %+v: ApplyOccurrence(%v) = %v, want +0", l, loss, got)
			}
			if got := ft.ApplyOccurrence(int32(fl), loss); math.Float64bits(got) != 0 {
				t.Errorf("slot %d: ApplyOccurrence(%v) = %v, want +0", fl, loss, got)
			}
		}
	}
}

func TestShareDefaultsToFull(t *testing.T) {
	l := Layer{}
	if got := l.ApplyAggregate(100); got != 100 {
		t.Fatalf("zero share should act as full participation, got %v", got)
	}
}

func TestMonotoneProperty(t *testing.T) {
	f := func(retRaw, limRaw uint16, l1Raw, l2Raw uint32) bool {
		l := Layer{OccRetention: float64(retRaw), OccLimit: float64(limRaw)}
		a := float64(l1Raw % 1_000_000)
		b := float64(l2Raw % 1_000_000)
		if a > b {
			a, b = b, a
		}
		occOK := l.ApplyOccurrence(a) <= l.ApplyOccurrence(b)+1e-9
		ag := Layer{AggRetention: float64(retRaw), AggLimit: float64(limRaw), Share: 0.7}
		aggOK := ag.ApplyAggregate(a) <= ag.ApplyAggregate(b)+1e-9
		return occOK && aggOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestRecoveryBoundedProperty(t *testing.T) {
	f := func(lossRaw uint32) bool {
		l := Layer{OccRetention: 100, OccLimit: 5000, AggLimit: 8000, Share: 0.9}
		occ := l.ApplyOccurrence(float64(lossRaw))
		if occ < 0 || occ > 5000 {
			return false
		}
		agg := l.ApplyAggregate(occ * 3)
		return agg >= 0 && agg <= 8000*0.9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	good := []Layer{{}, {OccRetention: 1, OccLimit: 2, Share: 1}, StandardCatXL(1000), WorkingLayer(1000)}
	for _, l := range good {
		if err := l.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", l, err)
		}
	}
	bad := []Layer{{OccRetention: -1}, {OccLimit: -1}, {AggRetention: -1}, {AggLimit: -1}, {Share: 2}}
	for _, l := range bad {
		if err := l.Validate(); !errors.Is(err, ErrInvalidLayer) {
			t.Errorf("Validate(%+v) = %v, want ErrInvalidLayer", l, err)
		}
	}
}

func TestContractValidate(t *testing.T) {
	c := Contract{ID: 1}
	if err := c.Validate(); err == nil {
		t.Error("contract without layers should fail validation")
	}
	c.Layers = []Layer{{Share: 0.5}}
	if err := c.Validate(); err != nil {
		t.Errorf("valid contract rejected: %v", err)
	}
	c.Layers = append(c.Layers, Layer{Share: -1})
	if err := c.Validate(); err == nil {
		t.Error("bad layer should fail contract validation")
	}
}

func TestPortfolioValidate(t *testing.T) {
	p := &Portfolio{}
	if err := p.Validate(); err == nil {
		t.Error("empty portfolio should fail")
	}
	p.Contracts = []Contract{{ID: 1, Layers: []Layer{{}}}}
	if err := p.Validate(); err != nil {
		t.Errorf("valid portfolio rejected: %v", err)
	}
	p.Contracts = append(p.Contracts, Contract{ID: 2})
	if err := p.Validate(); err == nil {
		t.Error("portfolio with invalid contract should fail")
	}
}

func TestStandardProgramsScale(t *testing.T) {
	xl := StandardCatXL(1_000_000)
	if xl.OccRetention != 5_000_000 || xl.OccLimit != 10_000_000 {
		t.Fatalf("CatXL terms: %+v", xl)
	}
	wl := WorkingLayer(1_000_000)
	if wl.OccRetention >= xl.OccRetention {
		t.Fatal("working layer should attach below the cat layer")
	}
}
