package aggregate

import (
	"context"
	"fmt"

	"repro/internal/layers"
	"repro/internal/lossindex"
	"repro/internal/rng"
	"repro/internal/yelt"
	"repro/internal/ylt"
)

// Reinstatements is the stateful occurrence-ordered engine: each trial
// year walks its events in date order, eroding and reinstating layer
// limits (see internal/layers). Like the stateless engines it is a pure
// function of (input, cfg); the YELT's day-of-year ordering is what
// makes limit erosion well-defined.
//
// Limit erosion is stateful per trial, so there is no event-major
// blocking to exploit: on the shared trial-range driver, each worker's
// kernel runs runTrialReinstFlat over lossindex.Flat and its own clone
// of a layers.FlatYearStates — contiguous year-state columns reset by
// bulk copy. The nested-slice state machine it replaced is the oracle
// in reinst_equiv_test.go. The per-trial premium ledger, which Result
// has no slot for, is retained on the engine (LastPremium), as Chunked
// retains its device statistics.
type Reinstatements struct {
	// Terms are the per-contract-layer reinstatement provisions:
	// Terms[ci][li] covers Portfolio.Contracts[ci].Layers[li]. Nil
	// derives StandardReinstatements from the input's portfolio at Run
	// time.
	Terms [][]layers.ReinstatementTerms
	// LastPremium is the per-trial reinstatement premium of the most
	// recent Run: LastPremium[t] is the total charged in trial t across
	// the book (reinsurer income offsetting recoveries).
	LastPremium []float64
}

// Name implements Engine.
func (*Reinstatements) Name() string { return "reinstatements" }

// Run implements Engine.
func (e *Reinstatements) Run(ctx context.Context, in *Input, cfg Config) (*Result, error) {
	if cfg.perContract() {
		// The stateful path produces no per-contract tables; refuse
		// loudly rather than return nil PerContract slots or never call
		// a sink (the same stance the device engine takes on sampling).
		return nil, fmt.Errorf("%w: %s: per-contract output", ErrUnsupported, e.Name())
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	fx, err := in.EnsureFlat()
	if err != nil {
		return nil, err
	}
	terms := e.Terms
	if terms == nil {
		terms = StandardReinstatements(in.Portfolio)
	}
	// One validated template shared by every worker; workers Clone it
	// so only the live columns are per-worker.
	tmpl, err := fx.Terms.NewFlatYearStates(terms)
	if err != nil {
		return nil, fmt.Errorf("aggregate: flattening year states: %w", err)
	}
	n := in.src().TrialCount()
	res := &Result{Portfolio: ylt.New("portfolio-reinst", n)}
	premium := make([]float64, n)
	err = runWorkers(ctx, in, cfg, cfg.Workers, res, func() batchKernel {
		// Per-worker year states and annual sums, reused across trials.
		fy := tmpl.Clone()
		sums := make([]float64, tmpl.NumLayers())
		return func(b *yelt.Table, base int) {
			for i := 0; i < b.NumTrials; i++ {
				trial := base + i
				// The trial's substream only feeds secondary-uncertainty
				// draws; expected mode never draws, so skip the stream
				// setup entirely.
				var st *rng.Stream
				if cfg.Sampling {
					st = rng.NewStream(cfg.Seed, uint64(trial))
				}
				res.Portfolio.Agg[trial], res.Portfolio.OccMax[trial], premium[trial] =
					runTrialReinstFlat(b.OccurrencesOf(i), fx, fy, cfg.Sampling, st, sums)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	e.LastPremium = premium
	return res, nil
}

// runTrialReinstFlat is the flat-SoA trial kernel for the stateful
// occurrence-ordered path: one contractual year over lossindex.Flat
// and a layers.FlatYearStates. It touches only contiguous arrays: the
// entry's LayerOff gather offset locates its contract's year-state
// frame, the occurrence-term recovery comes from the pre-applied ExpRec column
// (expected mode — the per-(entry, layer) value min(max(mean-ret,0),
// lim) is a build-time constant even though the *state capping* is
// not) or from the precomputed sampling plan plus the flat term
// columns (sampling mode), and annual sums accumulate into one flat
// sums vector. Occurrence order still serializes within the trial —
// that is the contractual semantics — but every memory access in the
// serial walk is a linear-offset load.
//
// Ordering contract: occurrences in YELT (day) order, entries in
// portfolio contract order within each event, layer frames in
// declaration order, state updates and draws in that exact sequence —
// so recoveries, premiums, and the annual close are bit-identical to
// the nested-slice state machine kept as the oracle in
// reinst_equiv_test.go.
func runTrialReinstFlat(
	occs []yelt.Occurrence,
	fx *lossindex.Flat,
	fy *layers.FlatYearStates,
	sampling bool,
	st *rng.Stream,
	sums []float64,
) (agg, occMax, premium float64) {
	for i := range sums {
		sums[i] = 0
	}
	fy.Reset()
	ft := fx.Terms
	expOff, layerOff := fx.ExpOff, fx.LayerOff
	for _, occ := range occs {
		lo, hi := fx.Span(occ.EventID)
		var occTotal float64
		for k := lo; k < hi; k++ {
			base := layerOff[k]
			n := expOff[k+1] - expOff[k]
			if sampling {
				loss := fx.SampleConst[k]
				if a := fx.SampleA[k]; a > 0 {
					var above bool
					if loss, above = st.ScaledBetaAbove(a, fx.SampleB[k], fx.SampleScale[k], ft.MinOccRet[fx.Contract[k]]); !above {
						// At or below every retention: each layer
						// passes 0 to FlatYearStates.Occurrence,
						// which returns (0, 0) and changes no state.
						continue
					}
				}
				for fl := base; fl < base+n; fl++ {
					rcv, p := fy.Occurrence(fl, ft.ApplyOccurrence(fl, loss))
					sums[fl] += rcv
					occTotal += rcv
					premium += p
				}
			} else {
				off := expOff[k]
				for j := int32(0); j < n; j++ {
					fl := base + j
					rcv, p := fy.Occurrence(fl, fx.ExpRec[off+j])
					sums[fl] += rcv
					occTotal += rcv
					premium += p
				}
			}
		}
		if occTotal > occMax {
			occMax = occTotal
		}
	}
	// Annual close: every flat slot in frame order — the same addition
	// sequence as the nested for-ci/for-li walk.
	for fl := int32(0); fl < int32(len(sums)); fl++ {
		agg += fy.CloseYear(fl, sums[fl])
	}
	return agg, occMax, premium
}

// StandardReinstatements builds market-style terms against every
// limited layer of the portfolio: one reinstatement "at 100%"
// (PremiumRate 1) of an upfront premium quoted at a 5% rate-on-line.
// Unlimited layers get zero terms — reinstatements are meaningless
// without an occurrence limit. This is the default book the
// reinstatements engine and the CLIs run when no explicit terms are
// supplied.
func StandardReinstatements(pf *layers.Portfolio) [][]layers.ReinstatementTerms {
	out := make([][]layers.ReinstatementTerms, len(pf.Contracts))
	for ci, c := range pf.Contracts {
		out[ci] = make([]layers.ReinstatementTerms, len(c.Layers))
		for li, l := range c.Layers {
			if l.OccLimit > 0 {
				out[ci][li] = layers.ReinstatementTerms{
					Count: 1, PremiumRate: 1, UpfrontPremium: 0.05 * l.OccLimit,
				}
			}
		}
	}
	return out
}
