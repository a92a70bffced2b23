package aggregate

import (
	"repro/internal/lossindex"
	"repro/internal/rng"
	"repro/internal/yelt"
)

// This file is the trial kernel: runBatchBlocked drives lossindex.Flat
// a block of Config.TrialBlock trial years per pass. Blocking buys
// three things a trial-at-a-time loop cannot have:
//
//   - The per-occurrence span resolution (Flat.Span: a rowOf probe plus
//     two offset loads) is hoisted out of the trial loop into one
//     event-major pass over the block's contiguous occurrence stream,
//     so the accumulation loops consume precomputed [lo, hi) spans. The
//     entry-structured paths keep only the hits, the occurrences whose
//     event carries a loss in the book, and walk nothing else.
//   - The per-trial accumulators are rows of one contiguous
//     block×NumLayers matrix, zeroed with a single bulk clear per block
//     instead of one clear per trial, and the annual-terms columns are
//     hoisted once per block.
//   - Per-trial dispatch overhead (sampling/per-contract branches,
//     scratch setup) is paid once per block, and the gather loops use
//     length-pinned re-slicing so the compiler can prove the inner adds
//     in bounds.
//
// Ordering contract: within a trial, occurrences are visited in YELT
// (day) order, an event's entries in portfolio contract order, layer
// frames in declaration order, and — in sampling mode — the trial's
// own substream consumes its beta draws in exactly that sequence. That
// is LegacyLookup's order, so results are bit-for-bit the oracle's. In
// expected mode the inner loop is gather-adds of build-time constants
// into per-trial accumulator rows; hoisting the span resolution and
// fusing the trial loop never moves an addition across trials (each
// trial owns its row) and never reorders an addition within a trial,
// so every per-trial sum associates identically. Sampling mode stays
// trial-major within the block but shares the hoisted span pass and
// column locals. Results are independent of TrialBlock.

// DefaultTrialBlock is the default trial-block size. Big enough to
// amortize per-block setup (span staging, accumulator clear, column
// hoisting) across many trials; small enough that the block's
// accumulator matrix (TrialBlock × NumLayers floats) and staged spans
// stay cache-resident on typical books.
const DefaultTrialBlock = 64

func (cfg Config) trialBlock() int {
	if cfg.TrialBlock > 0 {
		return cfg.TrialBlock
	}
	return DefaultTrialBlock
}

// blockBufs returns the blocked kernel's per-block scratch: the
// block×NumLayers accumulator matrix (zeroed by the caller) and the
// span staging arrays for nOccs occurrences, grown on demand and
// reused across blocks. spanPos holds the hit list's stream positions
// (hits.stage), spanSum the dense path's occurrence sums
// (stageExpSpans).
func (s *trialScratch) blockBufs(cells, nOccs int) (blockAgg []float64, spanPos, spanLo, spanHi []int32, spanSum []float64) {
	if cap(s.blockAgg) < cells {
		s.blockAgg = make([]float64, cells)
	}
	if cap(s.spanLo) < nOccs {
		s.spanPos = make([]int32, nOccs)
		s.spanLo = make([]int32, nOccs)
		s.spanHi = make([]int32, nOccs)
		s.spanSum = make([]float64, nOccs)
	}
	return s.blockAgg[:cells], s.spanPos[:nOccs], s.spanLo[:nOccs], s.spanHi[:nOccs], s.spanSum[:nOccs]
}

// blockCABuf returns the annual stage's per-trial contract-sum
// accumulator (length = block trials), grown on demand.
func (s *trialScratch) blockCABuf(n int) []float64 {
	if cap(s.blockCA) < n {
		s.blockCA = make([]float64, n)
	}
	return s.blockCA[:n]
}

// blockPerContractBufs returns the block×numContracts per-contract
// output matrices (annual recoveries and occurrence maxima), grown on
// demand like blockBufs.
func (s *trialScratch) blockPerContractBufs(cells int) (pc, pco []float64) {
	if cap(s.blockPC) < cells {
		s.blockPC = make([]float64, cells)
		s.blockPCO = make([]float64, cells)
	}
	return s.blockPC[:cells], s.blockPCO[:cells]
}

// runBatchBlocked executes one trial batch into the result tables: it
// tiles the batch into TrialBlock-sized blocks and drives each through
// the occurrence and annual stages below. Local trial i of the batch
// is global trial base+i (fixing the RNG substream) and lands in result
// slot base+i-slotOff, so results are independent of both the batch
// and the block tiling. A book with reinstatement terms takes the
// stateful walk instead.
func runBatchBlocked(fx *lossindex.Flat, in *Input, cfg Config, batch *yelt.Table, base int, res *Result, scratch *trialScratch, slotOff int) {
	if fx.Terms.YearStates != nil {
		runBatchReinst(fx, cfg, batch, base, res, scratch, slotOff)
		return
	}
	nl := fx.NumLayers()
	nc := len(in.Portfolio.Contracts)
	block := cfg.trialBlock()
	offs := batch.Offsets
	for t0 := 0; t0 < batch.NumTrials; t0 += block {
		t1 := min(t0+block, batch.NumTrials)
		n := t1 - t0
		nOccs := int(offs[t1] - offs[t0])
		blockAgg, spanPos, spanLo, spanHi, spanSum := scratch.blockBufs(n*nl, nOccs)
		for i := range blockAgg {
			blockAgg[i] = 0
		}

		var pc, pco []float64
		if res.PerContract != nil {
			pc, pco = scratch.blockPerContractBufs(n * nc)
			for i := range pc {
				pc[i] = 0
				pco[i] = 0
			}
		}
		slot := base + t0 - slotOff
		aggOut := res.Portfolio.Agg[slot : slot+n]
		occOut := res.Portfolio.OccMax[slot : slot+n]

		// Event-major span staging: one linear pass over the block's
		// contiguous occurrence stream, independent of trial boundaries —
		// the per-occurrence span work is paid here once, not inside the
		// trial loop. The dense expected path stages ExpRec-frame
		// coordinates plus the precomputed per-event occurrence sum; the
		// entry-structured paths (sampling, per-contract maxima) stage the
		// entry spans of the hits only.
		stream := batch.Occs[offs[t0]:offs[t1]]
		if !cfg.Sampling && pco == nil {
			stageExpSpans(stream, fx, spanLo, spanHi, spanSum)
			blockExpectedDense(batch, t0, t1, fx, nl, blockAgg, spanLo, spanHi, spanSum, occOut)
		} else {
			h := hits{pos: spanPos, lo: spanLo, hi: spanHi}
			h.stage(stream, fx)
			if cfg.Sampling {
				blockSampledOccurrences(batch, t0, t1, fx, cfg.Seed, base, nl, nc, blockAgg, h, occOut, pco)
			} else {
				blockExpectedOccurrences(batch, t0, t1, fx, nl, nc, blockAgg, h, occOut, pco)
			}
		}
		blockAnnual(fx, n, nl, blockAgg, aggOut, pc, nc, scratch.blockCABuf(n))

		if res.PerContract != nil {
			for i := 0; i < n; i++ {
				rowPC := pc[i*nc : i*nc+nc]
				rowPCO := pco[i*nc : i*nc+nc]
				for ci := 0; ci < nc; ci++ {
					res.PerContract[ci].Agg[slot+i] = rowPC[ci]
					res.PerContract[ci].OccMax[slot+i] = rowPCO[ci]
				}
			}
		}
	}
}

// hits is a block's hit list: the occurrences of its stream whose
// event carries a loss in the book (a non-empty entry span), in stream
// order. Hit j is occurrence pos[j] of the stream, counted from the
// block's first, with entry span [lo[j], hi[j]).
type hits struct {
	pos, lo, hi []int32
}

// stage resolves the entry span of every occurrence in the stream — the
// blocked kernel's event-major pre-pass — and keeps the hits, cutting
// the lists to their number. The append has no branch on the span:
// every occurrence is written at the next free slot, which advances by
// one only for a hit (a conditional move: on a one-contract book about
// four occurrences in five miss, in no pattern a branch predictor could
// learn). The lists must be at least as long as the stream.
func (h *hits) stage(occs []yelt.Occurrence, fx *lossindex.Flat) {
	pos, lo, hi := h.pos[:len(occs)], h.lo[:len(occs)], h.hi[:len(occs)]
	n := 0
	for i := range occs {
		l, u := fx.Span(occs[i].EventID)
		pos[n], lo[n], hi[n] = int32(i), l, u
		if l < u {
			n++
		}
	}
	h.pos, h.lo, h.hi = pos[:n], lo[:n], hi[:n]
}

// next returns the end of one trial's run of hits: given cur, the index
// of the trial's first hit (if it has any), the index of the first hit
// at or beyond end, the trial's end in the stream.
func (h hits) next(cur int, end int32) int {
	for cur < len(h.pos) && h.pos[cur] < end {
		cur++
	}
	return cur
}

// stageExpSpans resolves, for every occurrence in the stream, the
// contiguous ExpRec frame covering the event's entries and the event's
// precomputed whole-portfolio occurrence recovery (Flat.RowSum) — the
// dense expected path's event-major pre-pass.
func stageExpSpans(occs []yelt.Occurrence, fx *lossindex.Flat, expLo, expHi []int32, occSum []float64) {
	expLo = expLo[:len(occs)]
	expHi = expHi[:len(occs)]
	occSum = occSum[:len(occs)]
	for i := range occs {
		expLo[i], expHi[i], occSum[i] = fx.ExpSpan(occs[i].EventID)
	}
}

// blockExpectedDense is the blocked expected-mode occurrence stage
// without per-contract maxima — the hot default. Because an event's
// entries are packed, their per-layer ExpRec frames concatenate into
// one contiguous run [expLo, expHi), and ExpDst gives each cell's
// destination layer slot — so the whole per-occurrence nested
// entry×layer gather collapses to one flat scatter-add loop, in
// exactly the same element order (entries ascending, layers in
// declaration order within each entry), hence bit-identical sums. The
// per-occurrence portfolio recovery is the staged build-time RowSum,
// accumulated in that same order at Flatten time.
func blockExpectedDense(b *yelt.Table, t0, t1 int, fx *lossindex.Flat, nl int, blockAgg []float64, expLo, expHi []int32, occSum, occMaxOut []float64) {
	expRec, expDst := fx.ExpRec, fx.ExpDst
	offs := b.Offsets
	streamBase := offs[t0]
	for t := t0; t < t1; t++ {
		row := blockAgg[(t-t0)*nl : (t-t0)*nl+nl]
		var occMax float64
		for o := int(offs[t] - streamBase); o < int(offs[t+1]-streamBase); o++ {
			rec := expRec[expLo[o]:expHi[o]]
			dst := expDst[expLo[o]:expHi[o]]
			dst = dst[:len(rec)]
			for j, r := range rec {
				row[dst[j]] += r
			}
			if s := occSum[o]; s > occMax {
				occMax = s
			}
		}
		occMaxOut[t-t0] = occMax
	}
}

// blockExpectedOccurrences is the blocked expected-mode occurrence
// stage with per-contract maxima (without them, the dense path runs):
// for each trial of the block, gather the pre-applied recoveries of its
// hits' spans into the trial's accumulator row, entries ascending and
// layers in declaration order within each, through a length-pinned
// destination re-slice. A miss would add nothing and raise no maximum,
// so walking only the hits changes no bit.
func blockExpectedOccurrences(b *yelt.Table, t0, t1 int, fx *lossindex.Flat, nl, nc int, blockAgg []float64, hs hits, occMaxOut, pco []float64) {
	expOff, expRec, expSum := fx.ExpOff, fx.ExpRec, fx.ExpSum
	layerOff, contract := fx.LayerOff, fx.Contract
	offs := b.Offsets
	streamBase := offs[t0]
	h0 := 0
	for t := t0; t < t1; t++ {
		h1 := hs.next(h0, int32(offs[t+1]-streamBase))
		row := blockAgg[(t-t0)*nl : (t-t0)*nl+nl]
		pcoRow := pco[(t-t0)*nc : (t-t0)*nc+nc]
		var occMax float64
		for o := h0; o < h1; o++ {
			var portfolioOccLoss float64
			for k := hs.lo[o]; k < hs.hi[o]; k++ {
				rec := expRec[expOff[k]:expOff[k+1]]
				dst := row[layerOff[k]:]
				dst = dst[:len(rec)]
				for j, r := range rec {
					dst[j] += r
				}
				s := expSum[k]
				portfolioOccLoss += s
				if ci := contract[k]; s > pcoRow[ci] {
					pcoRow[ci] = s
				}
			}
			if portfolioOccLoss > occMax {
				occMax = portfolioOccLoss
			}
		}
		occMaxOut[t-t0] = occMax
		h0 = h1
	}
}

// blockSampledOccurrences is the blocked sampling-mode occurrence
// stage. Draw order is sacrosanct — each trial's substream consumes
// its beta draws in YELT occurrence order — so the walk stays
// trial-major within the block; the blocked win is the pre-staged
// hits and the hoisted plan/term columns. A miss draws nothing, so
// walking only the hits leaves every draw where it was, and a trial
// without hits never seeds its substream. A draw that ScaledBetaAbove
// proves at or below the contract's lowest retention recovers 0 through
// every layer, adds nothing and raises no maximum, so the entry is
// skipped without evaluating it.
func blockSampledOccurrences(b *yelt.Table, t0, t1 int, fx *lossindex.Flat, seed uint64, base, nl, nc int, blockAgg []float64, hs hits, occMaxOut, pco []float64) {
	ft := fx.Terms
	expOff, layerOff, contract := fx.ExpOff, fx.LayerOff, fx.Contract
	sampleConst, sampleA, sampleB, sampleScale := fx.SampleConst, fx.SampleA, fx.SampleB, fx.SampleScale
	occRet, occLim, minOccRet := ft.OccRet, ft.OccLim, ft.MinOccRet
	offs := b.Offsets
	streamBase := offs[t0]
	h0 := 0
	for t := t0; t < t1; t++ {
		h1 := hs.next(h0, int32(offs[t+1]-streamBase))
		if h0 == h1 {
			occMaxOut[t-t0] = 0
			continue
		}
		st := rng.NewStream(seed, uint64(base+t))
		row := blockAgg[(t-t0)*nl : (t-t0)*nl+nl]
		var pcoRow []float64
		if pco != nil {
			pcoRow = pco[(t-t0)*nc : (t-t0)*nc+nc]
		}
		var occMax float64
		for o := h0; o < h1; o++ {
			var portfolioOccLoss float64
			for k := hs.lo[o]; k < hs.hi[o]; k++ {
				loss := sampleConst[k]
				if a := sampleA[k]; a > 0 {
					var above bool
					if loss, above = st.ScaledBetaAbove(a, sampleB[k], sampleScale[k], minOccRet[contract[k]]); !above {
						continue
					}
				}
				fb := layerOff[k]
				end := fb + (expOff[k+1] - expOff[k])
				var contractOcc float64
				for fl := fb; fl < end; fl++ {
					// Inlined FlatTerms.ApplyOccurrence, arithmetic
					// unchanged: min(max(loss-ret, 0), lim).
					var r float64
					if ret := occRet[fl]; loss > ret {
						r = loss - ret
						if lim := occLim[fl]; r > lim {
							r = lim
						}
					}
					row[fl] += r
					contractOcc += r
				}
				portfolioOccLoss += contractOcc
				if pcoRow != nil {
					if ci := contract[k]; contractOcc > pcoRow[ci] {
						pcoRow[ci] = contractOcc
					}
				}
			}
			if portfolioOccLoss > occMax {
				occMax = portfolioOccLoss
			}
		}
		occMaxOut[t-t0] = occMax
		h0 = h1
	}
}

// blockAnnual applies the annual aggregate terms to the block's
// accumulator matrix, layer-major: contract frames outer (portfolio
// order), layers within the frame next (declaration order), trials
// innermost — so each layer's terms load once per block instead of
// once per trial, and the clamp arithmetic is the inlined
// FlatTerms.ApplyAggregate: min(max(sum-ret, 0), lim) · share.
//
// The interchange is bit-identical to a trial-major annual stage: each
// trial i accumulates its contract sum ca[i] over
// the frame's layers in declaration order, and its portfolio sum
// aggOut[i] over contracts in portfolio order — only independent
// trials are interleaved, never the additions within one trial.
func blockAnnual(fx *lossindex.Flat, n, nl int, blockAgg, aggOut, pc []float64, nc int, ca []float64) {
	ft := fx.Terms
	first := ft.First
	aggRet, aggLim, share := ft.AggRet, ft.AggLim, ft.Share
	for i := 0; i < n; i++ {
		aggOut[i] = 0
	}
	for ci := 0; ci+1 < len(first); ci++ {
		for i := 0; i < n; i++ {
			ca[i] = 0
		}
		for fl := first[ci]; fl < first[ci+1]; fl++ {
			ret, lim, sh := aggRet[fl], aggLim[fl], share[fl]
			idx := int(fl)
			for i := 0; i < n; i++ {
				sum := blockAgg[idx]
				idx += nl
				var r float64
				if sum > ret {
					r = sum - ret
					if r > lim {
						r = lim
					}
					r *= sh
				}
				ca[i] += r
			}
		}
		for i := 0; i < n; i++ {
			aggOut[i] += ca[i]
		}
		if pc != nil {
			for i := 0; i < n; i++ {
				pc[i*nc+ci] += ca[i]
			}
		}
	}
}
