package layers

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
//     computed once from the layers' terms by FlattenTerms), and
//   - the live Available/ReinstBal columns the kernel mutates through
//     a trial year.
//
// FlatTerms.YearStates is the template alone, with no live columns, so
// a FlatTerms stays immutable; Clone gives a worker its own live state
// over the shared template. Starting a fresh contractual year is Reset
// — two bulk copies from the template — instead of a per-layer
// NewYearState call; this is the reset-by-copy half of the flattening,
// which removes the per-trial nested-slice walk entirely.
//
// All state arithmetic is bit-identical to the scalar YearState
// methods (the differential property tests pin this): the premium
// base PremiumRate·UpfrontPremium is the same first product the
// scalar path computes, and the unlimited sentinel (-1 available) is
// carried over unchanged.
type FlatYearStates struct {
	terms *FlatTerms
	// Template columns (immutable after construction, shared by
	// clones): the slot's fresh-year state and premium constant.
	avail0   []float64 // OccLimit, or -1 for an unlimited layer or one without terms
	reinst0  []float64 // Count · OccLimit, 0 where avail0 is -1
	premBase []float64 // PremiumRate · UpfrontPremium, 0 when premium can never accrue
	// Live columns, reset per trial year via Reset; nil in the template.
	Available []float64 // remaining limit capacity, -1 = unlimited
	ReinstBal []float64 // limit amount still reinstatable
}

// flattenYearStates builds the year-state template for the flattened
// portfolio's layers, slot for slot; nil when no layer declares
// reinstatement terms. The terms were checked by Portfolio.Validate.
func flattenYearStates(ft *FlatTerms, pf *Portfolio) *FlatYearStates {
	if !pf.DeclaresReinstatements() {
		return nil
	}
	n := ft.NumLayers()
	fy := &FlatYearStates{
		terms:    ft,
		avail0:   make([]float64, n),
		reinst0:  make([]float64, n),
		premBase: make([]float64, n),
	}
	fl := 0
	for _, c := range pf.Contracts {
		for _, l := range c.Layers {
			// No terms, or no limit to reinstate: unlimited capacity,
			// exactly as Layer.NewYearState encodes it.
			fy.avail0[fl] = -1
			if t := l.Reinstatements; t != nil && l.OccLimit > 0 {
				fy.avail0[fl] = ft.OccLim[fl]
				fy.reinst0[fl] = float64(t.Count) * ft.OccLim[fl]
				if t.UpfrontPremium > 0 {
					// The scalar path computes PremiumRate·UpfrontPremium
					// first; folding it into the template keeps the rest of
					// the per-occurrence arithmetic bit-identical.
					fy.premBase[fl] = t.PremiumRate * t.UpfrontPremium
				}
			}
			fl++
		}
	}
	return fy
}

// DeclaresReinstatements reports whether any layer of the book carries
// reinstatement terms.
func (p *Portfolio) DeclaresReinstatements() bool {
	for _, c := range p.Contracts {
		for _, l := range c.Layers {
			if l.Reinstatements != nil {
				return true
			}
		}
	}
	return false
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
	c.Available = make([]float64, len(fy.avail0))
	c.ReinstBal = make([]float64, len(fy.reinst0))
	c.Reset()
	return &c
}

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

// CloseYear applies slot fl's annual terms to the year's summed
// recoveries — YearState.CloseYear over the flat term columns,
// bit-identical by FlatTerms' round-trip property.
func (fy *FlatYearStates) CloseYear(fl int32, sum float64) float64 {
	return fy.terms.ApplyAggregate(fl, sum)
}
