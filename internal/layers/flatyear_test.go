package layers

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// randomTerms maps three uniform draws to reinstatement terms covering
// the edge encodings: zero counts (exhaust after the initial limit),
// zero premium rates, and zero upfront premiums (no premium accrual).
func randomTerms(u [3]float64) ReinstatementTerms {
	t := ReinstatementTerms{Count: int(math.Trunc(u[0] * 4))}
	if u[1] > 0.25 {
		t.PremiumRate = math.Trunc(u[1]*8) / 4 // 0, 0.25, ..., 2
	}
	if u[2] > 0.25 {
		t.UpfrontPremium = math.Trunc(u[2]*10) * 100
	}
	return t
}

// The year-state flattening round trip: for random layers and terms —
// including unlimited layers and premium-free terms — a fresh
// FlatYearStates must hold exactly the state NewYearState starts
// from, and every occurrence processed through the SoA columns must
// return bit-identical (recovery, premium) to the scalar YearState
// walking the same loss sequence, with the live columns tracking the
// scalar state exactly. This is the differential property that pins
// the flat stateful kernel's arithmetic.
func TestFlatYearStatesDifferentialProperty(t *testing.T) {
	prop := func(u1, u2, u3, u4, t1, t2, t3, l1, l2, l3, l4, l5 float64) bool {
		u := [4]float64{frac(u1), frac(u2), frac(u3), frac(u4)}
		la, lb := randomLayer(u), randomLayer([4]float64{u[2], u[3], u[0], u[1]})
		ta := randomTerms([3]float64{frac(t1), frac(t2), frac(t3)})
		tb := randomTerms([3]float64{frac(t3), frac(t1), frac(t2)})
		la, lb = withTerms(la, ta), withTerms(lb, tb)
		pf := &Portfolio{Contracts: []Contract{
			{ID: 1, Layers: []Layer{la, lb}},
			{ID: 2, Layers: []Layer{lb}},
		}}
		ft, err := FlattenTerms(pf)
		if err != nil {
			t.Logf("FlattenTerms: %v", err)
			return false
		}
		fy := ft.YearStates.Clone()
		scalars := []YearState{
			la.NewYearState(), lb.NewYearState(), lb.NewYearState(),
		}
		// The loss sequence replays several magnitudes, including losses
		// pinned at attachment and exhaustion points.
		losses := []float64{
			frac(l1) * 3000, la.OccRetention, la.OccRetention + la.OccLimit,
			frac(l2) * 500, frac(l3) * 10000, 0, frac(l4) * 2000,
			lb.OccRetention + lb.OccLimit + 1, frac(l5) * 800,
		}
		var sums [3]float64
		for _, loss := range losses {
			for fl := range scalars {
				ys := &scalars[fl]
				wantR, wantP := ys.Occurrence(loss)
				gotR, gotP := fy.Occurrence(int32(fl), ft.ApplyOccurrence(int32(fl), loss))
				if gotR != wantR || gotP != wantP {
					t.Logf("slot %d loss %g: flat (%g, %g), scalar (%g, %g)", fl, loss, gotR, gotP, wantR, wantP)
					return false
				}
				if fy.Available[fl] != ys.Remaining() {
					t.Logf("slot %d: remaining %g vs %g", fl, fy.Available[fl], ys.Remaining())
					return false
				}
				if exhausted := fy.Available[fl] == 0 && fy.ReinstBal[fl] == 0; exhausted != ys.Exhausted() {
					t.Logf("slot %d: exhausted mismatch", fl)
					return false
				}
				// Invariants: recovery non-negative and premium non-negative;
				// limited layers never go below zero available or above the
				// occurrence limit.
				if gotR < 0 || gotP < 0 {
					return false
				}
				if avail := fy.Available[int32(fl)]; avail >= 0 {
					if avail > ft.OccLim[fl]+1e-9 {
						return false
					}
				}
				sums[fl] += gotR
			}
		}
		for fl := range scalars {
			want := scalars[fl].CloseYear(sums[fl])
			got := fy.CloseYear(int32(fl), sums[fl])
			if got != want {
				t.Logf("slot %d close(%g): flat %g, scalar %g", fl, sums[fl], got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Reset must restore the template bit-exactly — starting a new trial
// year by bulk copy is the whole point of the layout.
func TestFlatYearStatesResetByCopy(t *testing.T) {
	l := Layer{OccRetention: 100, OccLimit: 1000, Share: 1}
	pf := &Portfolio{Contracts: []Contract{{ID: 1, Layers: []Layer{
		withTerms(l, ReinstatementTerms{Count: 1, PremiumRate: 1, UpfrontPremium: 50}),
		withTerms(l, ReinstatementTerms{Count: 2, PremiumRate: 0.5, UpfrontPremium: 80}),
	}}}}
	ft, err := FlattenTerms(pf)
	if err != nil {
		t.Fatal(err)
	}
	fy := ft.YearStates.Clone()
	fresh := []struct{ avail, bal float64 }{{1000, 1000}, {1000, 2000}}
	check := func(when string) {
		t.Helper()
		for fl, w := range fresh {
			if fy.Available[fl] != w.avail || fy.ReinstBal[fl] != w.bal {
				t.Fatalf("%s: slot %d state (%g, %g), want (%g, %g)",
					when, fl, fy.Available[fl], fy.ReinstBal[fl], w.avail, w.bal)
			}
		}
	}
	check("fresh")
	// Burn through capacity, then reset.
	for i := 0; i < 5; i++ {
		fy.Occurrence(0, ft.ApplyOccurrence(0, 1500))
		fy.Occurrence(1, ft.ApplyOccurrence(1, 1500))
	}
	if fy.Available[0] != 0 || fy.ReinstBal[0] != 0 {
		t.Fatal("slot 0 should be exhausted after burning limit + reinstatement")
	}
	fy.Reset()
	check("after reset")

	// Clones share the template but not the live state.
	c := fy.Clone()
	c.Occurrence(0, 800)
	if fy.Available[0] != 1000 {
		t.Fatal("clone occurrence mutated the parent's live columns")
	}
	c.Reset()
	check("clone after reset")
	if len(fy.Available) != 2 {
		t.Fatal("bad accessor values")
	}
}

// Negative terms are refused by Layer.Validate before any template is
// built; a book without terms gets no template at all.
func TestFlatYearStatesValidation(t *testing.T) {
	l := Layer{OccLimit: 100}
	book := func(terms ...ReinstatementTerms) *Portfolio {
		second := []Layer{l, l}
		for i, tm := range terms {
			second[i] = withTerms(l, tm)
		}
		return &Portfolio{Contracts: []Contract{{ID: 1, Layers: []Layer{l}}, {ID: 2, Layers: second}}}
	}
	if _, err := FlattenTerms(book(ReinstatementTerms{Count: -1}, ReinstatementTerms{})); !errors.Is(err, ErrInvalidLayer) {
		t.Fatalf("negative count: err = %v, want ErrInvalidLayer", err)
	}
	ft, err := FlattenTerms(book(ReinstatementTerms{}, ReinstatementTerms{}))
	if err != nil {
		t.Fatalf("valid terms rejected: %v", err)
	}
	if ft.YearStates == nil {
		t.Fatal("a book with terms got no year-state template")
	}
	if ft, err = FlattenTerms(book()); err != nil || ft.YearStates != nil {
		t.Fatalf("a book without terms: template %v, err %v; want none", ft.YearStates, err)
	}
}

// A limited layer with nil terms, in a book that declares terms on
// another layer, keeps the stateless behaviour: its template slot is
// the unlimited sentinel, so no occurrence is capped by a spent limit
// and no premium accrues.
func TestFlatYearStatesNilTermsSlot(t *testing.T) {
	l := xlLayer()
	pf := &Portfolio{Contracts: []Contract{{ID: 1, Layers: []Layer{
		withTerms(l, ReinstatementTerms{Count: 1, PremiumRate: 1, UpfrontPremium: 100}),
		l,
	}}}}
	ft, err := FlattenTerms(pf)
	if err != nil {
		t.Fatal(err)
	}
	fy := ft.YearStates.Clone()
	if fy.Available[0] != 1000 || fy.Available[1] != -1 {
		t.Fatalf("template slots (%g, %g), want (1000, -1)", fy.Available[0], fy.Available[1])
	}
	for i := 0; i < 5; i++ {
		r, p := fy.Occurrence(1, ft.ApplyOccurrence(1, 5000))
		if r != 1000 || p != 0 {
			t.Fatalf("occurrence %d on the nil-terms slot: (%g, %g), want (1000, 0)", i, r, p)
		}
	}
}

// An unlimited layer's slot must degrade to unlimited capacity — the
// -1 sentinel — exactly as the scalar state does, and never charge
// premium.
func TestFlatYearStatesUnlimitedLayer(t *testing.T) {
	l := withTerms(Layer{OccRetention: 50}, ReinstatementTerms{Count: 3, PremiumRate: 1, UpfrontPremium: 100}) // no occurrence limit
	pf := &Portfolio{Contracts: []Contract{{ID: 1, Layers: []Layer{l}}}}
	ft, err := FlattenTerms(pf)
	if err != nil {
		t.Fatal(err)
	}
	fy := ft.YearStates.Clone()
	if fy.Available[0] != -1 {
		t.Fatalf("unlimited slot remaining = %g, want -1", fy.Available[0])
	}
	ys := l.NewYearState()
	for _, loss := range []float64{0, 49, 51, 1e9} {
		wantR, wantP := ys.Occurrence(loss)
		gotR, gotP := fy.Occurrence(0, ft.ApplyOccurrence(0, loss))
		if gotR != wantR || gotP != wantP {
			t.Fatalf("loss %g: flat (%g, %g), scalar (%g, %g)", loss, gotR, gotP, wantR, wantP)
		}
		if gotP != 0 {
			t.Fatalf("unlimited layer charged premium %g", gotP)
		}
	}
}
