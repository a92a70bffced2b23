// Package layers models reinsurance contract structures: the financial
// terms stage 2 applies on top of per-event contract losses. Aggregate
// analysis (per the paper's companion algorithm, Bahl et al., WHPCF at
// SC12 [7]) walks each trial year's event occurrences, looks up the
// contract loss per event, applies per-occurrence terms, accumulates,
// and applies annual aggregate terms.
package layers

import (
	"errors"
	"fmt"
)

// ErrInvalidLayer is returned by Validate for inconsistent layers.
var ErrInvalidLayer = errors.New("layers: invalid layer")

// Layer is a catastrophe excess-of-loss reinsurance layer.
type Layer struct {
	// OccRetention is the per-occurrence attachment point: losses
	// below it are retained by the cedant.
	OccRetention float64
	// OccLimit caps the recovery per occurrence; 0 means unlimited.
	OccLimit float64
	// AggRetention is the annual aggregate deductible applied to the
	// sum of occurrence recoveries within a trial year.
	AggRetention float64
	// AggLimit caps annual recoveries; 0 means unlimited.
	AggLimit float64
	// Share is the reinsurer's participation in the layer, (0, 1];
	// 0 is normalized to 1.
	Share float64
	// Reinstatements are the layer's reinstatement provisions (see
	// reinstatements.go); nil means none, and the layer's limit is not
	// eroded through the year.
	Reinstatements *ReinstatementTerms
}

// Validate reports whether the layer's terms are consistent.
func (l Layer) Validate() error {
	if l.OccRetention < 0 || l.AggRetention < 0 {
		return fmt.Errorf("%w: negative retention", ErrInvalidLayer)
	}
	if l.OccLimit < 0 || l.AggLimit < 0 {
		return fmt.Errorf("%w: negative limit", ErrInvalidLayer)
	}
	if l.Share < 0 || l.Share > 1 {
		return fmt.Errorf("%w: share %g outside [0,1]", ErrInvalidLayer, l.Share)
	}
	if t := l.Reinstatements; t != nil && (t.Count < 0 || t.PremiumRate < 0 || t.UpfrontPremium < 0) {
		return fmt.Errorf("%w: negative reinstatement terms", ErrInvalidLayer)
	}
	return nil
}

// ApplyOccurrence maps one event's contract loss to the layer's
// occurrence recovery: min(max(loss - occRet, 0), occLimit).
// Share is applied at the annual stage, not per occurrence. A loss that
// does not exceed the retention pays +0, and so do a NaN loss and a NaN
// retention (no comparison with NaN holds), as in the trial kernel.
func (l Layer) ApplyOccurrence(loss float64) float64 {
	if !(loss > l.OccRetention) {
		return 0
	}
	r := loss - l.OccRetention
	if l.OccLimit > 0 && r > l.OccLimit {
		r = l.OccLimit
	}
	return r
}

// ApplyAggregate maps the annual sum of occurrence recoveries to the
// layer's annual payout: min(max(sum - aggRet, 0), aggLimit) · share.
// A sum that does not exceed the retention pays +0, and so do a NaN sum
// and a NaN retention (no comparison with NaN holds): an untouched
// layer, whose sum is +0, pays +0 whatever its retention.
func (l Layer) ApplyAggregate(sum float64) float64 {
	if !(sum > l.AggRetention) {
		return 0
	}
	r := sum - l.AggRetention
	if l.AggLimit > 0 && r > l.AggLimit {
		r = l.AggLimit
	}
	share := l.Share
	if share == 0 {
		share = 1
	}
	return r * share
}

// Contract couples an ELT-bearing exposure with the layers written on
// it. ELTIndex refers into the portfolio's table list so the contract
// description stays decoupled from table storage.
type Contract struct {
	ID       uint32
	ELTIndex int
	Layers   []Layer
}

// Validate checks the contract's layers.
func (c Contract) Validate() error {
	if len(c.Layers) == 0 {
		return fmt.Errorf("%w: contract %d has no layers", ErrInvalidLayer, c.ID)
	}
	for i, l := range c.Layers {
		if err := l.Validate(); err != nil {
			return fmt.Errorf("contract %d layer %d: %w", c.ID, i, err)
		}
	}
	return nil
}

// Portfolio is the book of contracts stage 2 analyses. The paper: "A
// reinsurer typically may have tens of thousands of contracts and are
// interested in quantifying the risk across their whole portfolio".
type Portfolio struct {
	Contracts []Contract
}

// Validate checks every contract.
func (p *Portfolio) Validate() error {
	if len(p.Contracts) == 0 {
		return errors.New("layers: empty portfolio")
	}
	for _, c := range p.Contracts {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// StandardCatXL returns a typical per-occurrence catastrophe
// excess-of-loss program sized against a contract's expected loss
// scale: attachment around 5× the mean event loss, a limit of the
// same order, an aggregate limit of two full limits.
func StandardCatXL(meanEventLoss float64) Layer {
	att := 5 * meanEventLoss
	lim := float64(10 * meanEventLoss)
	return Layer{
		OccRetention: att,
		OccLimit:     lim,
		AggLimit:     2 * lim,
		Share:        1,
	}
}

// WorkingLayer returns a low-attaching layer that responds to most
// events — the high-frequency end of a program.
func WorkingLayer(meanEventLoss float64) Layer {
	return Layer{
		OccRetention: 0.5 * meanEventLoss,
		OccLimit:     4 * meanEventLoss,
		AggRetention: meanEventLoss,
		AggLimit:     20 * meanEventLoss,
		Share:        1,
	}
}
