package layers

import (
	"math"
	"testing"
	"testing/quick"
)

func xlLayer() Layer {
	return Layer{OccRetention: 100, OccLimit: 1000, Share: 1}
}

// withTerms returns l carrying reinstatement terms t.
func withTerms(l Layer, t ReinstatementTerms) Layer {
	l.Reinstatements = &t
	return l
}

func TestYearStateSingleEventWithinLimit(t *testing.T) {
	ys := withTerms(xlLayer(), ReinstatementTerms{Count: 1, PremiumRate: 1, UpfrontPremium: 50}).NewYearState()
	r, p := ys.Occurrence(600)
	if r != 500 {
		t.Fatalf("recovery = %v, want 500", r)
	}
	// 500 of 1000 limit consumed and fully reinstated at rate 1:
	// premium = 50 * 500/1000 = 25.
	if math.Abs(p-25) > 1e-12 {
		t.Fatalf("reinstatement premium = %v, want 25", p)
	}
	if ys.Remaining() != 1000 {
		t.Fatalf("remaining = %v, want 1000 after reinstatement", ys.Remaining())
	}
}

func TestYearStateExhaustion(t *testing.T) {
	// One reinstatement: total annual capacity = 2 × 1000.
	ys := withTerms(xlLayer(), ReinstatementTerms{Count: 1, PremiumRate: 1, UpfrontPremium: 100}).NewYearState()
	var total float64
	losses := []float64{1200, 1200, 1200} // each pierces the full limit
	for _, l := range losses {
		r, _ := ys.Occurrence(l)
		total += r
	}
	if total != 2000 {
		t.Fatalf("total recoveries = %v, want 2000 (limit + 1 reinstatement)", total)
	}
	if !ys.Exhausted() {
		t.Fatal("layer should be exhausted")
	}
	r, p := ys.Occurrence(5000)
	if r != 0 || p != 0 {
		t.Fatal("exhausted layer must pay nothing")
	}
}

func TestYearStateZeroReinstatements(t *testing.T) {
	ys := withTerms(xlLayer(), ReinstatementTerms{}).NewYearState()
	r1, p1 := ys.Occurrence(1200)
	if r1 != 1000 || p1 != 0 {
		t.Fatalf("first occurrence: (%v, %v)", r1, p1)
	}
	r2, _ := ys.Occurrence(1200)
	if r2 != 0 {
		t.Fatalf("no reinstatements: second full loss should recover 0, got %v", r2)
	}
}

func TestYearStateUnlimitedLayer(t *testing.T) {
	l := Layer{OccRetention: 10} // no occurrence limit
	ys := withTerms(l, ReinstatementTerms{Count: 3, PremiumRate: 1, UpfrontPremium: 100}).NewYearState()
	for i := 0; i < 10; i++ {
		r, p := ys.Occurrence(1_000_000)
		if r != 999_990 {
			t.Fatalf("unlimited layer recovery = %v", r)
		}
		if p != 0 {
			t.Fatal("unlimited layer charges no reinstatement premium")
		}
	}
	if ys.Exhausted() {
		t.Fatal("unlimited layer cannot exhaust")
	}
}

func TestYearStatePartialReinstatement(t *testing.T) {
	// Count=1 but the second loss consumes more than the remaining
	// reinstatement balance.
	ys := withTerms(xlLayer(), ReinstatementTerms{Count: 1, PremiumRate: 0.5, UpfrontPremium: 200}).NewYearState()
	r1, p1 := ys.Occurrence(800) // consumes 700, reinstates 700
	if r1 != 700 {
		t.Fatalf("r1 = %v", r1)
	}
	if math.Abs(p1-0.5*200*700/1000) > 1e-12 {
		t.Fatalf("p1 = %v", p1)
	}
	// Reinstatement balance now 300.
	r2, p2 := ys.Occurrence(2000) // wants 1000, gets 1000, reinstates 300
	if r2 != 1000 {
		t.Fatalf("r2 = %v", r2)
	}
	if math.Abs(p2-0.5*200*300/1000) > 1e-12 {
		t.Fatalf("p2 = %v", p2)
	}
	if ys.Remaining() != 300 {
		t.Fatalf("remaining = %v, want 300", ys.Remaining())
	}
	r3, _ := ys.Occurrence(2000)
	if r3 != 300 {
		t.Fatalf("r3 = %v, want the final 300", r3)
	}
	if !ys.Exhausted() {
		t.Fatal("should be exhausted now")
	}
}

func TestYearStateTotalCapacityProperty(t *testing.T) {
	// Total annual recovery never exceeds (Count+1)·OccLimit, for any
	// loss sequence.
	f := func(lossesRaw []uint16, countRaw uint8) bool {
		count := int(countRaw % 4)
		l := Layer{OccRetention: 50, OccLimit: 500, Share: 1}
		ys := withTerms(l, ReinstatementTerms{Count: count, PremiumRate: 1, UpfrontPremium: 100}).NewYearState()
		var total, premiums float64
		for _, lr := range lossesRaw {
			r, p := ys.Occurrence(float64(lr))
			if r < 0 || p < 0 {
				return false
			}
			total += r
			premiums += p
		}
		cap := float64(count+1) * 500
		if total > cap+1e-9 {
			return false
		}
		// Premium never exceeds Count · rate · upfront.
		return premiums <= float64(count)*100+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCloseYearAppliesAggregateTerms(t *testing.T) {
	l := Layer{OccRetention: 0, OccLimit: 1000, AggRetention: 500, AggLimit: 1200, Share: 0.5}
	ys := withTerms(l, ReinstatementTerms{Count: 5, PremiumRate: 0, UpfrontPremium: 0}).NewYearState()
	var sum float64
	for i := 0; i < 3; i++ {
		r, _ := ys.Occurrence(900)
		sum += r
	}
	// sum = 2700; annual = min(2700-500, 1200) * 0.5 = 600.
	if got := ys.CloseYear(sum); got != 600 {
		t.Fatalf("CloseYear = %v, want 600", got)
	}
}
