package aggregate

import (
	"context"
	"fmt"

	"repro/internal/layers"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/yelt"
	"repro/internal/ylt"
)

// ReinstatementInput extends an Input with per-contract-layer
// reinstatement terms, enabling the stateful occurrence-ordered path:
// each trial year walks events in date order, eroding and reinstating
// layer limits (see internal/layers). Terms[ci][li] corresponds to
// Portfolio.Contracts[ci].Layers[li].
type ReinstatementInput struct {
	*Input
	Terms [][]layers.ReinstatementTerms
}

// Validate extends Input.Validate with terms-shape checks.
func (in *ReinstatementInput) Validate() error {
	if err := in.Input.Validate(); err != nil {
		return err
	}
	if len(in.Terms) != len(in.Portfolio.Contracts) {
		return fmt.Errorf("aggregate: %d term rows for %d contracts", len(in.Terms), len(in.Portfolio.Contracts))
	}
	for ci, c := range in.Portfolio.Contracts {
		if len(in.Terms[ci]) != len(c.Layers) {
			return fmt.Errorf("aggregate: contract %d: %d term entries for %d layers",
				c.ID, len(in.Terms[ci]), len(c.Layers))
		}
		for li, t := range in.Terms[ci] {
			if t.Count < 0 || t.PremiumRate < 0 || t.UpfrontPremium < 0 {
				return fmt.Errorf("aggregate: contract %d layer %d: negative reinstatement terms", c.ID, li)
			}
		}
	}
	return nil
}

// ReinstatementResult is the stateful path's output: the portfolio
// YLT plus the reinstatement premium earned per trial year.
type ReinstatementResult struct {
	Portfolio *ylt.Table
	// ReinstPremium[t] is the total reinstatement premium charged in
	// trial t across the book (reinsurer income offsetting recoveries).
	ReinstPremium []float64
	// PeakResidentBytes mirrors Result.PeakResidentBytes: the run's
	// trial-data memory envelope.
	PeakResidentBytes int64
}

// RunReinstatements executes the occurrence-ordered stateful analysis
// in parallel over trials. Like the stateless engines it is a pure
// function of (input, cfg); the YELT's day-of-year ordering is what
// makes limit erosion well-defined.
//
// Limit erosion is stateful per trial, so there is no event-major
// blocking to exploit: each worker drives the single-trial
// runTrialReinstFlat over lossindex.Flat and its own clone of a
// layers.FlatYearStates — contiguous year-state columns reset by bulk
// copy. The nested-slice state machine it replaced is the oracle in
// reinst_equiv_test.go.
func RunReinstatements(ctx context.Context, in *ReinstatementInput, cfg Config) (*ReinstatementResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	fx, err := in.EnsureFlat()
	if err != nil {
		return nil, err
	}
	// One validated template shared by every worker; workers Clone it
	// so only the live columns are per-worker.
	tmpl, err := fx.Terms.NewFlatYearStates(in.Terms)
	if err != nil {
		return nil, fmt.Errorf("aggregate: flattening year states: %w", err)
	}
	src := in.src()
	n := src.TrialCount()
	res := &ReinstatementResult{
		Portfolio:     ylt.New("portfolio-reinst", n),
		ReinstPremium: make([]float64, n),
	}
	rt := trackerFor(in.Input)

	err = stream.ForEachRange(ctx, n, cfg.Workers, func(ctx context.Context, r stream.Range, w int) error {
		// Per-worker year states and annual sums, reused across trials.
		fy := tmpl.Clone()
		sums := make([]float64, tmpl.NumLayers())
		return streamRange(ctx, src, r, cfg.batchTrials(), rt, w, &yelt.Table{}, func(b *yelt.Table, base int) error {
			for i := 0; i < b.NumTrials; i++ {
				trial := base + i
				// The trial's substream only feeds secondary-uncertainty
				// draws; expected mode never draws, so skip the stream
				// setup entirely.
				var st *rng.Stream
				if cfg.Sampling {
					st = rng.NewStream(cfg.Seed, uint64(trial))
				}
				agg, occMax, premium := runTrialReinstFlat(b.OccurrencesOf(i), fx, fy, cfg.Sampling, st, sums)
				res.Portfolio.Agg[trial] = agg
				res.Portfolio.OccMax[trial] = occMax
				res.ReinstPremium[trial] = premium
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	res.PeakResidentBytes = peakResident(in.Input, rt)
	return res, nil
}

// UnlimitedReinstatements builds terms that never bind (a large count
// and no premium), under which RunReinstatements must agree with the
// stateless engines — the consistency check the tests pin down.
func UnlimitedReinstatements(pf *layers.Portfolio) [][]layers.ReinstatementTerms {
	out := make([][]layers.ReinstatementTerms, len(pf.Contracts))
	for ci, c := range pf.Contracts {
		out[ci] = make([]layers.ReinstatementTerms, len(c.Layers))
		for li := range c.Layers {
			out[ci][li] = layers.ReinstatementTerms{Count: 1 << 20}
		}
	}
	return out
}
