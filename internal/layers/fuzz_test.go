package layers

import (
	"math"
	"testing"
)

// FuzzYearState drives a scalar YearState — and the FlatYearStates
// SoA columns as a differential oracle — through a fuzzer-chosen
// layer, terms, and occurrence sequence, checking the documented
// invariants at every step:
//
//   - a recovery is never negative and never exceeds the occurrence
//     term recovery, nor (for limited layers) the capacity available
//     before the occurrence;
//   - available stays within [0, OccLimit] for limited layers (the -1
//     sentinel only ever means unlimited);
//   - the reinstatement balance only decreases and never goes
//     negative;
//   - total recoveries never exceed (Count+1)·OccLimit, the layer's
//     contractual annual capacity;
//   - premium is non-negative and zero whenever no upfront premium
//     was written;
//   - CloseYear stays within the aggregate terms' bounds.
func FuzzYearState(f *testing.F) {
	f.Add(100.0, 1000.0, 0.0, 0.0, 1.0, uint8(1), 1.0, 50.0, 600.0, 1200.0, 0.0, 900.0)
	f.Add(0.0, 0.0, 100.0, 500.0, 0.5, uint8(0), 0.0, 0.0, 10.0, 0.0, 1e9, 3.5)
	f.Add(250.0, 750.0, 0.0, 2000.0, 0.25, uint8(3), 2.0, 100.0, 1000.0, 1000.0, 1000.0, 1000.0)
	// Fuzzer-found: full reinstatement rounds (avail-r)+r one ulp above
	// the occurrence limit (in scalar and flat states identically).
	f.Add(-60.0, 248.88888888888889, 0.0, -108.0, 109.0, uint8(0x0f), 10.0, -66.33333333333333, 619.0, 1200.0, 42.8, 100.0)
	f.Fuzz(func(t *testing.T, occRet, occLim, aggRet, aggLim, share float64,
		count uint8, rate, upfront, loss1, loss2, loss3, loss4 float64) {
		sane := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return 0
			}
			return math.Min(v, 1e12)
		}
		terms := ReinstatementTerms{
			Count:          int(count % 8),
			PremiumRate:    sane(rate),
			UpfrontPremium: sane(upfront),
		}
		l := Layer{
			OccRetention: sane(occRet), OccLimit: sane(occLim),
			AggRetention: sane(aggRet), AggLimit: sane(aggLim),
			Share:          math.Min(sane(share), 1),
			Reinstatements: &terms,
		}
		pf := &Portfolio{Contracts: []Contract{{ID: 1, Layers: []Layer{l}}}}
		ft, err := FlattenTerms(pf)
		if err != nil {
			t.Skip() // the fuzzer found an invalid layer; not this fuzz target's concern
		}
		fy := ft.YearStates.Clone()
		ys := l.NewYearState()

		capacity := math.Inf(1)
		if l.OccLimit > 0 {
			capacity = float64(terms.Count+1) * l.OccLimit
		}
		var total, sum float64
		for _, loss := range []float64{sane(loss1), sane(loss2), sane(loss3), sane(loss4)} {
			availBefore := ys.Remaining()
			balBefore := fy.ReinstBal[0]
			occRec := l.ApplyOccurrence(loss)
			r, p := ys.Occurrence(loss)
			fr, fp := fy.Occurrence(0, ft.ApplyOccurrence(0, loss))
			if fr != r || fp != p {
				t.Fatalf("flat (%g, %g) != scalar (%g, %g) for loss %g", fr, fp, r, p, loss)
			}
			if r < 0 || p < 0 {
				t.Fatalf("negative recovery %g or premium %g", r, p)
			}
			if r > occRec {
				t.Fatalf("recovery %g exceeds occurrence-term recovery %g", r, occRec)
			}
			if availBefore >= 0 && r > availBefore {
				t.Fatalf("recovery %g exceeds available capacity %g", r, availBefore)
			}
			// Reinstating what an occurrence consumed computes
			// (avail - r) + reinstate, which can land one ulp above the
			// original capacity when reinstate == r — in the scalar state
			// machine and the SoA columns identically — so the upper bound
			// holds to relative rounding, not exactly.
			if avail := ys.Remaining(); avail != -1 && (avail < 0 || avail > l.OccLimit*(1+1e-12)) {
				t.Fatalf("available %g outside [0, %g]", avail, l.OccLimit)
			}
			if terms.UpfrontPremium == 0 && p != 0 {
				t.Fatalf("premium %g with no upfront premium", p)
			}
			if bal := fy.ReinstBal[0]; bal < 0 || bal > balBefore {
				t.Fatalf("reinstatement balance went from %g to %g", balBefore, bal)
			}
			total += r
			sum += r
		}
		if total > capacity*(1+1e-12) {
			t.Fatalf("total recoveries %g exceed annual capacity %g", total, capacity)
		}
		annual := ys.CloseYear(sum)
		if fAnnual := fy.CloseYear(0, sum); fAnnual != annual {
			t.Fatalf("flat close %g != scalar close %g", fAnnual, annual)
		}
		if annual < 0 {
			t.Fatalf("negative annual payout %g", annual)
		}
		shareEff := l.Share
		if shareEff == 0 {
			shareEff = 1
		}
		if bound := math.Max(0, sum-l.AggRetention) * shareEff; annual > bound*(1+1e-12) {
			t.Fatalf("annual payout %g exceeds pre-limit bound %g", annual, bound)
		}
		if l.AggLimit > 0 && annual > l.AggLimit*shareEff*(1+1e-12) {
			t.Fatalf("annual payout %g exceeds aggregate limit bound", annual)
		}
	})
}
