package aggregate

import (
	"repro/internal/layers"
	"repro/internal/lossindex"
	"repro/internal/rng"
	"repro/internal/yelt"
)

// runBatchReinst is runBatchBlocked for a book that declares
// reinstatement terms (lossindex.Flat's Terms.YearStates is set): each
// trial year walks its events in date order, eroding and reinstating
// layer limits (see internal/layers). The YELT's occurrence order,
// which the generator fixes by day, is what makes limit erosion
// well-defined.
//
// Limit erosion is stateful per trial, so there is no event-major
// blocking to exploit: each trial runs runTrialReinstFlat over the
// worker's own clone of the year-state template, held in its scratch —
// contiguous columns reset by bulk copy. The nested-slice state machine
// it replaced is the oracle in reinst_equiv_test.go. Local trial i of
// the batch is global trial base+i and lands in result slot
// base+i-slotOff, premium column included.
func runBatchReinst(fx *lossindex.Flat, cfg Config, batch *yelt.Table, base int, res *Result, scratch *trialScratch, slotOff int) {
	if scratch.years == nil {
		scratch.years = fx.Terms.YearStates.Clone()
		scratch.sums = make([]float64, fx.NumLayers())
		scratch.contractAgg = make([]float64, fx.NumContracts())
		scratch.contractOcc = make([]float64, fx.NumContracts())
	}
	var pc, pco []float64
	if res.PerContract != nil {
		pc, pco = scratch.contractAgg, scratch.contractOcc
	}
	for i := 0; i < batch.NumTrials; i++ {
		trial := base + i
		// The trial's substream only feeds secondary-uncertainty draws;
		// expected mode never draws, so skip the stream setup entirely.
		var st *rng.Stream
		if cfg.Sampling {
			st = rng.NewStream(cfg.Seed, uint64(trial))
		}
		slot := trial - slotOff
		res.Portfolio.Agg[slot], res.Portfolio.OccMax[slot], res.Premium[slot] =
			runTrialReinstFlat(batch.OccurrencesOf(i), fx, scratch.years, cfg.Sampling, st, scratch.sums, pc, pco)
		for ci, t := range res.PerContract {
			t.Agg[slot], t.OccMax[slot] = pc[ci], pco[ci]
		}
	}
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
// serial walk is a linear-offset load. pc and pco, when not nil, get
// each contract's annual recovery and largest occurrence recovery: a
// contract's entry and layer frames are a subsequence of the walk, so
// in expected mode, where no draw depends on the rest of the book, each
// is the sum a one-contract book of that contract computes.
//
// Ordering contract: occurrences in YELT (day) order, entries in
// portfolio contract order within each event, layer frames in
// declaration order, state updates and draws in that exact sequence —
// so recoveries, premiums, and the annual close are bit-identical to
// the nested-slice state machine kept as the oracle in
// reinst_equiv_test.go.
func runTrialReinstFlat(
	occs []uint32,
	fx *lossindex.Flat,
	fy *layers.FlatYearStates,
	sampling bool,
	st *rng.Stream,
	sums, pc, pco []float64,
) (agg, occMax, premium float64) {
	clear(sums)
	clear(pc)
	clear(pco)
	fy.Reset()
	ft := fx.Terms
	expOff, layerOff := fx.ExpOff, fx.LayerOff
	for _, event := range occs {
		lo, hi := fx.Span(event)
		var occTotal float64
		for k := lo; k < hi; k++ {
			var loss float64
			if sampling {
				loss = fx.SampleConst[k]
				if a := fx.SampleA[k]; a > 0 {
					var above bool
					if loss, above = st.ScaledBetaAbove(a, fx.SampleB[k], fx.SampleScale[k], ft.MinOccRet[fx.Contract[k]]); !above {
						// At or below every retention: each layer
						// passes 0 to FlatYearStates.Occurrence,
						// which returns (0, 0) and changes no state.
						continue
					}
				}
			}
			var contractOcc float64
			off, base := expOff[k], layerOff[k]
			for j := int32(0); j < expOff[k+1]-off; j++ {
				fl := base + j
				rec := fx.ExpRec[off+j]
				if sampling {
					rec = ft.ApplyOccurrence(fl, loss)
				}
				rcv, p := fy.Occurrence(fl, rec)
				sums[fl] += rcv
				occTotal += rcv
				contractOcc += rcv
				premium += p
			}
			if pco != nil {
				if ci := fx.Contract[k]; contractOcc > pco[ci] {
					pco[ci] = contractOcc
				}
			}
		}
		if occTotal > occMax {
			occMax = occTotal
		}
	}
	// Annual close: every flat slot in frame order — the same addition
	// sequence as the nested for-ci/for-li walk.
	first := ft.First
	for ci := 0; ci+1 < len(first); ci++ {
		for fl := first[ci]; fl < first[ci+1]; fl++ {
			v := fy.CloseYear(fl, sums[fl])
			agg += v
			if pc != nil {
				pc[ci] += v
			}
		}
	}
	return agg, occMax, premium
}
