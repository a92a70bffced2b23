package layers

// Reinstatement support. A catastrophe XL layer is usually written
// with a limited number of reinstatements: each occurrence's recovery
// erodes the layer's limit, and the limit is restored ("reinstated")
// up to K times against a pro-rata premium. Aggregate analysis must
// therefore walk occurrences *in date order* (the reason the YELT
// stores each year's events in the order of their days), maintaining
// per-layer year state.
//
// Relationship to the stateless path: a layer with nil Reinstatements
// behaves as its plain occurrence/aggregate terms, with no annual cap
// and no premium; the engines walk a book through the year states only
// when some layer of it declares terms. Zero terms (&ReinstatementTerms{})
// are not nil terms: they cap the layer at one limit per year.

// ReinstatementTerms are a Layer's reinstatement provisions.
type ReinstatementTerms struct {
	// Count is the number of reinstatements (limit refills). The
	// layer's total annual capacity is (Count+1) · OccLimit.
	Count int
	// PremiumRate is the reinstatement premium per unit of reinstated
	// limit, expressed as a fraction of the layer's upfront premium
	// (1.0 = "at 100%", the market standard quote).
	PremiumRate float64
	// UpfrontPremium is the layer's annual premium, the base for
	// reinstatement premium calculations.
	UpfrontPremium float64
}

// YearState tracks one layer's erosion through a trial year.
type YearState struct {
	layer     Layer
	available float64 // remaining limit capacity this year
	reinstBal float64 // limit amount still reinstatable
}

// NewYearState starts a fresh contractual year for the layer under its
// Reinstatements terms. A layer without terms, or without an occurrence
// limit (where reinstatements are meaningless), has unlimited capacity.
func (l Layer) NewYearState() YearState {
	ys := YearState{layer: l}
	if l.OccLimit <= 0 || l.Reinstatements == nil {
		ys.available = -1 // unlimited
		return ys
	}
	ys.available = l.OccLimit
	ys.reinstBal = float64(l.Reinstatements.Count) * l.OccLimit
	return ys
}

// Occurrence processes one event in date order: the recovery is the
// occurrence-term recovery capped by remaining capacity; consumed
// limit is reinstated from the reinstatement balance, charging
// premium pro-rata. It returns the recovery (before Share) and the
// reinstatement premium incurred.
func (ys *YearState) Occurrence(loss float64) (recovery, reinstPremium float64) {
	r := ys.layer.ApplyOccurrence(loss)
	if r <= 0 {
		return 0, 0
	}
	if ys.available >= 0 {
		if r > ys.available {
			r = ys.available
		}
		ys.available -= r
		// Reinstate what was just consumed, while balance remains.
		reinstate := r
		if reinstate > ys.reinstBal {
			reinstate = ys.reinstBal
		}
		if reinstate > 0 {
			ys.reinstBal -= reinstate
			ys.available += reinstate
			if t := ys.layer.Reinstatements; t.UpfrontPremium > 0 {
				reinstPremium = t.PremiumRate * t.UpfrontPremium * reinstate / ys.layer.OccLimit
			}
		}
	}
	return r, reinstPremium
}

// Exhausted reports whether the layer can pay nothing more this year.
func (ys *YearState) Exhausted() bool {
	return ys.available == 0 && ys.reinstBal == 0
}

// Remaining returns the currently available limit (-1 = unlimited).
func (ys *YearState) Remaining() float64 { return ys.available }

// CloseYear applies the layer's annual terms (aggregate retention,
// aggregate limit, share) to the year's summed recoveries and returns
// the annual payout net of nothing (reinstatement premiums are
// reported separately by Occurrence). sum must be the total of the
// recoveries returned by Occurrence during the year.
func (ys *YearState) CloseYear(sum float64) float64 {
	return ys.layer.ApplyAggregate(sum)
}

// StandardReinstatements writes market-style terms on every limited
// layer of the book, in place: one reinstatement "at 100%"
// (PremiumRate 1) of an upfront premium quoted at a 5% rate-on-line.
// Unlimited layers keep nil terms, since reinstatements are meaningless
// without an occurrence limit. It is the book riskpipeline's
// -reinstatements flag runs.
func StandardReinstatements(pf *Portfolio) {
	for ci := range pf.Contracts {
		ls := pf.Contracts[ci].Layers
		for li := range ls {
			if lim := ls[li].OccLimit; lim > 0 {
				ls[li].Reinstatements = &ReinstatementTerms{Count: 1, PremiumRate: 1, UpfrontPremium: 0.05 * lim}
			}
		}
	}
}
