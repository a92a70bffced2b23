package financial

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestApplyKnownCases(t *testing.T) {
	terms := Terms{Deductible: 100, Limit: 500, Share: 0.5}
	cases := []struct{ gu, want float64 }{
		{0, 0},
		{-10, 0},
		{50, 0},    // below deductible
		{100, 0},   // exactly deductible
		{300, 100}, // (300-100)*0.5
		{600, 250}, // limited: 500*0.5
		{10000, 250},
	}
	for _, c := range cases {
		if got := terms.Apply(c.gu); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Apply(%v) = %v, want %v", c.gu, got, c.want)
		}
	}
}

func TestApplyDefaults(t *testing.T) {
	// Zero limit = unlimited; zero share = full participation.
	terms := Terms{Deductible: 10}
	if got := terms.Apply(110); got != 100 {
		t.Fatalf("Apply = %v, want 100", got)
	}
}

func TestApplyMonotoneProperty(t *testing.T) {
	f := func(dRaw, lRaw, sRaw uint16, g1Raw, g2Raw uint32) bool {
		terms := Terms{
			Deductible: float64(dRaw),
			Limit:      float64(lRaw),
			Share:      float64(sRaw%101) / 100,
		}
		g1 := float64(g1Raw % 1_000_000)
		g2 := float64(g2Raw % 1_000_000)
		if g1 > g2 {
			g1, g2 = g2, g1
		}
		return terms.Apply(g1) <= terms.Apply(g2)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestApplyDeductibleMonotoneProperty(t *testing.T) {
	// More deductible never increases the gross loss.
	f := func(d1Raw, d2Raw uint16, guRaw uint32) bool {
		d1, d2 := float64(d1Raw), float64(d2Raw)
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		gu := float64(guRaw % 1_000_000)
		a := Terms{Deductible: d1}.Apply(gu)
		b := Terms{Deductible: d2}.Apply(gu)
		return b <= a+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestApplyBoundedByLimitShare(t *testing.T) {
	f := func(guRaw uint32) bool {
		terms := Terms{Deductible: 50, Limit: 1000, Share: 0.7}
		got := terms.Apply(float64(guRaw))
		return got >= 0 && got <= 700+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	good := []Terms{{}, {Deductible: 1, Limit: 2, Share: 0.5}, {Share: 1}}
	for _, g := range good {
		if err := g.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", g, err)
		}
	}
	bad := []Terms{{Deductible: -1}, {Limit: -5}, {Share: 1.5}, {Share: -0.1},
		{Deductible: math.NaN()}, {Limit: math.NaN()}, {Share: math.NaN()}, {Limit: math.Inf(1)}}
	for _, b := range bad {
		if err := b.Validate(); !errors.Is(err, ErrInvalidTerms) {
			t.Errorf("Validate(%+v) = %v, want ErrInvalidTerms", b, err)
		}
	}
}

func TestApplyMomentsInsideLinearSegment(t *testing.T) {
	terms := Terms{Deductible: 100, Limit: 10_000, Share: 0.8}
	mean, sd := terms.ApplyMoments(1100, 200)
	if math.Abs(mean-800) > 1e-9 { // (1100-100)*0.8
		t.Fatalf("mean = %v, want 800", mean)
	}
	if math.Abs(sd-160) > 1e-9 { // 200*0.8
		t.Fatalf("sd = %v, want 160", sd)
	}
}

func TestApplyMomentsBelowAttachment(t *testing.T) {
	terms := Terms{Deductible: 1000}
	mean, sd := terms.ApplyMoments(500, 400) // tail pierces deductible
	if mean != 0 {
		t.Fatalf("mean = %v, want 0", mean)
	}
	if sd <= 0 {
		t.Fatal("expected residual sd when tail pierces the deductible")
	}
	mean, sd = terms.ApplyMoments(100, 10) // tail nowhere near
	if mean != 0 || sd != 0 {
		t.Fatalf("deep below attachment: (%v, %v), want (0, 0)", mean, sd)
	}
}

func TestApplyMomentsLimitExhausted(t *testing.T) {
	terms := Terms{Deductible: 0, Limit: 1000, Share: 1}
	_, sdInside := terms.ApplyMoments(500, 100)
	_, sdExhausted := terms.ApplyMoments(5000, 100)
	if sdExhausted >= sdInside {
		t.Fatalf("sd at exhausted limit (%v) should be damped vs inside (%v)", sdExhausted, sdInside)
	}
}

func TestStandardTerms(t *testing.T) {
	res := StandardResidential(1_000_000)
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Deductible != 10_000 {
		t.Fatalf("residential deductible = %v", res.Deductible)
	}
	com := StandardCommercial(1_000_000)
	if err := com.Validate(); err != nil {
		t.Fatal(err)
	}
	if com.Limit != 800_000 || com.Share != 0.9 {
		t.Fatalf("commercial terms = %+v", com)
	}
}
