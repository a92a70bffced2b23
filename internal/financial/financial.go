// Package financial implements the third catastrophe-model module from
// §II of the paper: turning damage into "the resultant financial
// loss". It applies primary-insurance policy terms (deductible, limit,
// coinsurance share) to ground-up losses; reinsurance-layer terms live
// in internal/layers because they apply at a different pipeline stage.
package financial

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalidTerms is returned by Validate for inconsistent terms.
var ErrInvalidTerms = errors.New("financial: invalid policy terms")

// Terms are primary policy conditions applied per event per interest.
type Terms struct {
	// Deductible is retained by the insured before the policy pays.
	Deductible float64
	// Limit caps the policy payout per event; 0 means unlimited.
	Limit float64
	// Share is the insurer's participation in the loss after
	// deductible and limit, in (0, 1]. 0 is normalized to 1.
	Share float64
}

// Validate reports whether the terms are internally consistent: every
// field finite, deductible and limit non-negative, share in [0, 1].
func (t Terms) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"deductible", t.Deductible}, {"limit", t.Limit}, {"share", t.Share}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%w: %s %g is not finite", ErrInvalidTerms, f.name, f.v)
		}
	}
	if t.Deductible < 0 {
		return fmt.Errorf("%w: negative deductible %g", ErrInvalidTerms, t.Deductible)
	}
	if t.Limit < 0 {
		return fmt.Errorf("%w: negative limit %g", ErrInvalidTerms, t.Limit)
	}
	if t.Share < 0 || t.Share > 1 {
		return fmt.Errorf("%w: share %g outside [0,1]", ErrInvalidTerms, t.Share)
	}
	return nil
}

// Apply converts a ground-up loss to the insurer's gross loss:
//
//	gross = min(max(gu - deductible, 0), limit) · share
//
// with limit 0 treated as unlimited and share 0 as full participation.
func (t Terms) Apply(groundUp float64) float64 {
	if groundUp <= 0 {
		return 0
	}
	l := groundUp - t.Deductible
	if l <= 0 {
		return 0
	}
	if t.Limit > 0 && l > t.Limit {
		l = t.Limit
	}
	share := t.Share
	if share == 0 {
		share = 1
	}
	return l * share
}

// ApplyMoments propagates (mean, sd) loss moments through the terms
// using the piecewise-linear transform evaluated at the mean, with the
// slope damping the sd. This is the cheap moment transform ELT
// construction uses: exact for losses that stay inside one linear
// segment, and a documented approximation at the kinks (deductible
// attachment and limit exhaustion), where it errs conservative.
func (t Terms) ApplyMoments(mean, sd float64) (gMean, gSD float64) {
	gMean = t.Apply(mean)
	if gMean <= 0 {
		// Below attachment in expectation: some tail still pierces the
		// deductible; keep a fraction of the sd as residual risk.
		if sd > 0 && mean > 0 && mean+2*sd > t.Deductible {
			share := t.Share
			if share == 0 {
				share = 1
			}
			return 0, sd * 0.25 * share
		}
		return 0, 0
	}
	share := t.Share
	if share == 0 {
		share = 1
	}
	slope := share
	if t.Limit > 0 && mean-t.Deductible >= t.Limit {
		// Limit exhausted at the mean: variation mostly doesn't change
		// the payout anymore.
		slope = share * 0.1
	}
	return gMean, sd * slope
}

// StandardResidential returns typical personal-lines terms: a small
// deductible, no limit beyond value, full participation.
func StandardResidential(value float64) Terms {
	return Terms{Deductible: 0.01 * value, Limit: 0, Share: 1}
}

// StandardCommercial returns typical commercial terms with a
// percentage deductible and a coinsurance share.
func StandardCommercial(value float64) Terms {
	return Terms{Deductible: 0.05 * value, Limit: 0.8 * value, Share: 0.9}
}
