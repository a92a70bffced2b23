package layers

import (
	"fmt"
	"math"
)

// FlatYearStates is the structure-of-arrays year-state layout for the
// stateful reinstatements path: the per-(contract, layer) YearState
// values laid out as contiguous columns parallel to a FlatTerms'
// flat slots, framed per contract by FlatTerms.First. It is to
// YearState what FlatTerms is to Layer — the paper's "scanned over
// rather than randomly accessed" restructuring applied to the mutable
// contractual-year state itself: the occurrence-ordered kernel walks
// dense float64 columns instead of nested [][]YearState slices.
//
// A FlatYearStates carries two kinds of columns:
//
//   - an immutable template (the NewYearState values for every slot,
//     computed once from the terms at construction), and
//   - the live Available/ReinstBal columns the kernel mutates through
//     a trial year.
//
// Starting a fresh contractual year is Reset — two bulk copies from
// the template — instead of a per-layer NewYearState call; this is
// the reset-by-copy half of the flattening, which removes the
// per-trial nested-slice walk entirely. Workers share one validated
// template via Clone, which reuses the immutable columns and
// allocates only the live ones.
//
// All state arithmetic is bit-identical to the scalar YearState
// methods (the differential property tests pin this): the premium
// base PremiumRate·UpfrontPremium is the same first product the
// scalar path computes, and the unlimited-layer sentinel (-1
// available) is carried over unchanged.
type FlatYearStates struct {
	terms *FlatTerms
	// Template columns (immutable after construction, shared by
	// clones): the slot's fresh-year state and premium constant.
	avail0   []float64 // OccLimit, or -1 for unlimited layers
	reinst0  []float64 // Count · OccLimit, 0 for unlimited layers
	premBase []float64 // PremiumRate · UpfrontPremium, 0 when premium can never accrue
	// Live columns, reset per trial year via Reset.
	Available []float64 // remaining limit capacity, -1 = unlimited
	ReinstBal []float64 // limit amount still reinstatable
}

// NewFlatYearStates builds the SoA year-state layout for the
// portfolio's reinstatement terms, shaped like the scalar path's
// Terms[ci][li] (contract ci's layers occupy flat slots
// [First[ci], First[ci+1])). The terms shape must match the flattened
// portfolio's contract frames, and all terms must be non-negative —
// the same checks the stateful engine's Validate performs.
func (ft *FlatTerms) NewFlatYearStates(terms [][]ReinstatementTerms) (*FlatYearStates, error) {
	if len(terms) != ft.NumContracts() {
		return nil, fmt.Errorf("layers: %d term rows for %d flattened contracts", len(terms), ft.NumContracts())
	}
	n := ft.NumLayers()
	fy := &FlatYearStates{
		terms:     ft,
		avail0:    make([]float64, n),
		reinst0:   make([]float64, n),
		premBase:  make([]float64, n),
		Available: make([]float64, n),
		ReinstBal: make([]float64, n),
	}
	for ci := 0; ci < ft.NumContracts(); ci++ {
		frame := int(ft.First[ci+1] - ft.First[ci])
		if len(terms[ci]) != frame {
			return nil, fmt.Errorf("layers: contract frame %d: %d term entries for %d layers", ci, len(terms[ci]), frame)
		}
		for li, t := range terms[ci] {
			if t.Count < 0 || t.PremiumRate < 0 || t.UpfrontPremium < 0 {
				return nil, fmt.Errorf("layers: contract frame %d layer %d: negative reinstatement terms", ci, li)
			}
			fl := ft.First[ci] + int32(li)
			occLim := ft.OccLim[fl]
			if math.IsInf(occLim, 1) {
				// Unlimited layer: reinstatements are meaningless and the
				// state degrades to unlimited capacity, exactly as
				// Layer.NewYearState encodes it.
				fy.avail0[fl] = -1
				continue
			}
			fy.avail0[fl] = occLim
			fy.reinst0[fl] = float64(t.Count) * occLim
			if t.UpfrontPremium > 0 {
				// The scalar path computes PremiumRate·UpfrontPremium as its
				// first product; folding it into the template keeps the
				// remaining per-occurrence arithmetic bit-identical.
				fy.premBase[fl] = t.PremiumRate * t.UpfrontPremium
			}
		}
	}
	fy.Reset()
	return fy, nil
}

// Reset starts a fresh contractual year for every slot: two bulk
// copies from the template, replacing the scalar path's per-layer
// NewYearState calls.
func (fy *FlatYearStates) Reset() {
	copy(fy.Available, fy.avail0)
	copy(fy.ReinstBal, fy.reinst0)
}

// Clone returns an independent live state sharing fy's immutable
// template columns — the per-worker handle. The clone starts at a
// fresh contractual year.
func (fy *FlatYearStates) Clone() *FlatYearStates {
	c := *fy
	c.Available = make([]float64, len(fy.Available))
	c.ReinstBal = make([]float64, len(fy.ReinstBal))
	c.Reset()
	return &c
}

// NumLayers returns the number of flat year-state slots.
func (fy *FlatYearStates) NumLayers() int { return len(fy.Available) }

// Terms returns the flattened layer terms the states were built over.
func (fy *FlatYearStates) Terms() *FlatTerms { return fy.terms }

// Occurrence processes one event in date order for slot fl, taking
// the layer's occurrence-term recovery rec (ApplyOccurrence of the
// event loss through slot fl — a build-time constant in expected
// mode, which is why the split exists) and applying the year state:
// the recovery is capped by remaining capacity, consumed limit is
// reinstated from the reinstatement balance, and premium is charged
// pro-rata. Bit-identical to YearState.Occurrence for any loss.
func (fy *FlatYearStates) Occurrence(fl int32, rec float64) (recovery, reinstPremium float64) {
	r := rec
	if r <= 0 {
		return 0, 0
	}
	if avail := fy.Available[fl]; avail >= 0 {
		if r > avail {
			r = avail
		}
		avail -= r
		// Reinstate what was just consumed, while balance remains.
		reinstate := r
		if bal := fy.ReinstBal[fl]; reinstate > bal {
			reinstate = bal
		}
		if reinstate > 0 {
			fy.ReinstBal[fl] -= reinstate
			avail += reinstate
			reinstPremium = fy.premBase[fl] * reinstate / fy.terms.OccLim[fl]
		}
		fy.Available[fl] = avail
	}
	return r, reinstPremium
}

// Exhausted reports whether slot fl can pay nothing more this year.
func (fy *FlatYearStates) Exhausted(fl int32) bool {
	return fy.Available[fl] == 0 && fy.ReinstBal[fl] == 0
}

// Remaining returns slot fl's currently available limit (-1 =
// unlimited).
func (fy *FlatYearStates) Remaining(fl int32) float64 { return fy.Available[fl] }

// CloseYear applies slot fl's annual terms to the year's summed
// recoveries — YearState.CloseYear over the flat term columns,
// bit-identical by FlatTerms' round-trip property.
func (fy *FlatYearStates) CloseYear(fl int32, sum float64) float64 {
	return fy.terms.ApplyAggregate(fl, sum)
}
