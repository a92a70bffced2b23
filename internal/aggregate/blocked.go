package aggregate

import (
	"math"
	"math/bits"

	"repro/internal/lossindex"
	"repro/internal/rng"
	"repro/internal/yelt"
	"repro/internal/ylt"
)

// This file is the trial kernel: runBatchBlocked drives lossindex.Flat
// a block of Config.TrialBlock trial years per pass, in two stages per
// block, and does only the work that can recover something:
//
//   - The occurrence stage resolves every occurrence's span once, in
//     one event-major pass over the block's contiguous occurrence
//     stream (the trial loop then consumes precomputed spans), and keeps
//     only the occurrences that can add anything: in expected mode,
//     those whose event has a non-empty compacted frame (Flat.Cells: its
//     non-zero pre-applied recoveries only); in sampling mode, the hits,
//     whose event carries a loss in the book. It adds into rows of one
//     block×NumLayers accumulator matrix, marks, per trial, each flat
//     slot it adds into in a bitmap of ⌈NumLayers/64⌉ words, and raises
//     the per-contract occurrence maxima, when kept, in place in the
//     result tables.
//   - The annual stage visits, per trial, only the marked slots, in
//     ascending slot order: it applies the annual terms to each, sums
//     them per contract and the contract sums into the portfolio's
//     (writing each contract's sum, when kept, into its table), and
//     re-zeroes each cell and bitmap word it read, so the next
//     block starts from a zero matrix without a bulk clear.
//
// Why skipping is exact: accumulators start at +0, and every recovery
// added to one is +0, positive, +Inf or NaN, so no accumulator ever
// holds −0 and adding +0 to one changes no bit. Layer.Validate refuses
// negative retentions, so an unmarked slot (sum +0) recovers +0 through
// the clamp's 0 > ret, also when ret is NaN, and a contract none of
// whose slots is marked sums to +0. Visiting the marked slots in
// ascending order keeps every remaining addition in its place.
//
// Ordering contract: within a trial, occurrences are visited in YELT
// order, an event's entries in portfolio contract order, layer frames
// in declaration order, and — in sampling mode — the trial's own
// substream consumes its beta draws in exactly that sequence. That is
// LegacyLookup's order, so results are bit-for-bit the oracle's. In
// expected mode the inner loop is scatter-adds of build-time constants
// into per-trial accumulator rows; hoisting the span resolution and
// fusing the trial loop never moves an addition across trials (each
// trial owns its row) and never reorders an addition within a trial.
// Sampling mode stays trial-major within the block but shares the
// hoisted span pass. Results are independent of TrialBlock.

// DefaultTrialBlock is the default trial-block size. Big enough to
// amortize per-block setup (span staging, column hoisting) across many
// trials; small enough that the block's accumulator matrix (TrialBlock
// × NumLayers floats) and staged spans stay cache-resident on typical
// books.
const DefaultTrialBlock = 64

func (cfg Config) trialBlock() int {
	if cfg.TrialBlock > 0 {
		return cfg.TrialBlock
	}
	return DefaultTrialBlock
}

// blockBufs returns the blocked kernel's per-block scratch: the
// block×NumLayers accumulator matrix and the block×words touched-slot
// bitmap, both all zero (a fresh allocation is; the annual stage
// re-zeroes what the occurrence stage wrote), and the hit-list staging
// columns for nOccs occurrences, grown on demand and reused across
// blocks. sum is staged by the expected path only.
func (s *trialScratch) blockBufs(cells, marks, nOccs int) (blockAgg []float64, touched []uint64, h hits) {
	if cap(s.blockAgg) < cells {
		s.blockAgg = make([]float64, cells)
	}
	if cap(s.touched) < marks {
		s.touched = make([]uint64, marks)
	}
	if cap(s.spanLo) < nOccs {
		s.spanPos = make([]int32, nOccs)
		s.spanLo = make([]int32, nOccs)
		s.spanHi = make([]int32, nOccs)
		s.spanSum = make([]float64, nOccs)
	}
	h = hits{pos: s.spanPos[:nOccs], lo: s.spanLo[:nOccs], hi: s.spanHi[:nOccs], sum: s.spanSum[:nOccs]}
	return s.blockAgg[:cells], s.touched[:marks], h
}

// markSlot records in a trial's touched-slot bitmap that the
// occurrence stage added into flat slot fl.
func markSlot(mark []uint64, fl int32) {
	mark[uint32(fl)>>6] |= 1 << (uint32(fl) & 63)
}

// runBatchBlocked executes one trial batch into the result tables: it
// tiles the batch into TrialBlock-sized blocks and drives each through
// the occurrence and annual stages below. Local trial i of the batch
// is global trial base+i (fixing the RNG substream) and lands in result
// slot base+i-slotOff, so results are independent of both the batch
// and the block tiling. A book with reinstatement terms takes the
// stateful walk instead.
func runBatchBlocked(fx *lossindex.Flat, _ *Input, cfg Config, batch *yelt.Table, base int, res *Result, scratch *trialScratch, slotOff int) {
	if fx.Terms.YearStates != nil {
		runBatchReinst(fx, cfg, batch, base, res, scratch, slotOff)
		return
	}
	nl := fx.NumLayers()
	words := (nl + 63) / 64
	block := cfg.trialBlock()
	offs := batch.Offsets
	for t0 := 0; t0 < batch.NumTrials; t0 += block {
		t1 := min(t0+block, batch.NumTrials)
		n := t1 - t0
		blockAgg, touched, h := scratch.blockBufs(n*nl, n*words, int(offs[t1]-offs[t0]))
		slot := base + t0 - slotOff
		aggOut := res.Portfolio.Agg[slot : slot+n]
		occOut := res.Portfolio.OccMax[slot : slot+n]

		// Event-major staging: one linear pass over the block's
		// contiguous occurrence stream, independent of trial boundaries —
		// the per-occurrence span work is paid here once, not inside the
		// trial loop. Expected mode stages the occurrences with a
		// non-empty compacted frame, with the event's precomputed
		// occurrence sum; sampling mode stages the entry spans of the
		// hits.
		stream := batch.Occs[offs[t0]:offs[t1]]
		b := &kernelBlock{batch: batch, t0: t0, t1: t1, nl: nl, words: words, agg: blockAgg, touched: touched,
			perContract: res.PerContract, slot: slot}
		if cfg.Sampling {
			h.stage(stream, fx)
			blockSampledOccurrences(b, fx, cfg.Seed, base, &h, occOut)
		} else {
			h.stageCells(stream, fx)
			blockExpectedCells(b, fx, &h, occOut)
		}
		blockAnnualTouched(b, fx, aggOut)
	}
}

// kernelBlock is one block of a batch as its stages see it: trials
// [t0, t1) of batch, their accumulator rows of nl cells in agg and
// their touched-slot bitmaps of words words in touched, trial t's at
// offset (t-t0)·nl and (t-t0)·words. Trial t's result slot is
// slot+t-t0, in the portfolio table and in perContract, the result's
// per-contract tables (nil when none are kept). Those tables start at
// +0 (every run allocates them fresh), and the stages write into them
// in place: a contract that no slot of a trial reaches keeps +0.
type kernelBlock struct {
	batch       *yelt.Table
	t0, t1      int
	nl, words   int
	agg         []float64
	touched     []uint64
	perContract []*ylt.Table
	slot        int
}

// row returns trial t's accumulator row and touched-slot bitmap.
func (b *kernelBlock) row(t int) (acc []float64, mark []uint64) {
	i := t - b.t0
	return b.agg[i*b.nl : i*b.nl+b.nl], b.touched[i*b.words : i*b.words+b.words]
}

// hits is a block's hit list: the occurrences of its stream that can
// add anything, in stream order. Hit j is occurrence pos[j] of the
// stream, counted from the block's first, with span [lo[j], hi[j]): an
// entry span (stage) or a compacted expected frame (stageCells), whose
// event's occurrence recovery is then sum[j].
type hits struct {
	pos, lo, hi []int32
	sum         []float64
}

// stage resolves the entry span of every occurrence in the stream — the
// sampled kernel's event-major pre-pass — and keeps the hits, the
// occurrences whose event carries a loss in the book, cutting the lists
// to their number. The append has no branch on the span: every
// occurrence is written at the next free slot, which advances by one
// only for a hit (a conditional move: on a one-contract book about four
// occurrences in five miss, in no pattern a branch predictor could
// learn). The lists must be at least as long as the stream.
func (h *hits) stage(occs []uint32, fx *lossindex.Flat) {
	pos, lo, hi := h.pos[:len(occs)], h.lo[:len(occs)], h.hi[:len(occs)]
	n := 0
	for i := range occs {
		l, u := fx.Span(occs[i])
		pos[n], lo[n], hi[n] = int32(i), l, u
		if l < u {
			n++
		}
	}
	h.pos, h.lo, h.hi = pos[:n], lo[:n], hi[:n]
}

// stageCells is stage for the expected path: it keeps the
// occurrences whose event has a non-empty compacted frame
// (Flat.Cells), with the event's precomputed whole-portfolio occurrence
// recovery (Flat.RowSum). An occurrence it drops adds nothing, and its
// recovery is +0, which never raises an occurrence maximum.
func (h *hits) stageCells(occs []uint32, fx *lossindex.Flat) {
	pos, lo, hi, sum := h.pos[:len(occs)], h.lo[:len(occs)], h.hi[:len(occs)], h.sum[:len(occs)]
	n := 0
	for i := range occs {
		l, u, s := fx.Cells(occs[i])
		pos[n], lo[n], hi[n], sum[n] = int32(i), l, u, s
		if l < u {
			n++
		}
	}
	h.pos, h.lo, h.hi, h.sum = pos[:n], lo[:n], hi[:n], sum[:n]
}

// next returns the end of one trial's run of hits: given cur, the index
// of the trial's first hit (if it has any), the index of the first hit
// at or beyond end, the trial's end in the stream.
func (h *hits) next(cur int, end int32) int {
	for cur < len(h.pos) && h.pos[cur] < end {
		cur++
	}
	return cur
}

// blockExpectedCells is the blocked expected-mode occurrence stage. An
// event's non-zero pre-applied recoveries are one contiguous run of
// RowRec, and RowDst gives each cell's destination layer slot, so the
// per-occurrence nested entry×layer gather is one flat scatter-add loop
// over the cells that recover something, in the dense frame's element
// order (entries ascending, layers in declaration order within each).
// The per-occurrence portfolio recovery is the staged build-time
// RowSum, accumulated in that same order at Flatten time. When
// per-contract tables are kept, a second walk of the same cells raises
// each contract's occurrence maximum (raiseContractMaxima).
func blockExpectedCells(b *kernelBlock, fx *lossindex.Flat, hs *hits, occMaxOut []float64) {
	rowRec, rowDst, slotContract := fx.RowRec, fx.RowDst, fx.SlotContract
	perContract := b.perContract
	offs := b.batch.Offsets
	streamBase := offs[b.t0]
	h0 := 0
	for t := b.t0; t < b.t1; t++ {
		h1 := hs.next(h0, int32(offs[t+1]-streamBase))
		row, mark := b.row(t)
		var occMax float64
		for o := h0; o < h1; o++ {
			rec := rowRec[hs.lo[o]:hs.hi[o]]
			dst := rowDst[hs.lo[o]:hs.hi[o]]
			dst = dst[:len(rec)]
			for j, r := range rec {
				fl := dst[j]
				row[fl] += r
				markSlot(mark, fl)
			}
			if s := hs.sum[o]; s > occMax {
				occMax = s
			}
			if perContract != nil {
				raiseContractMaxima(perContract, b.slot+t-b.t0, slotContract, rec, dst)
			}
		}
		occMaxOut[t-b.t0] = occMax
		h0 = h1
	}
}

// raiseContractMaxima raises, in result slot slot of each contract's
// table, the occurrence maximum by the contract's recovery from one
// occurrence's compacted cells. The cells run row → entry → layer, and
// a row holds at most one entry per contract, contracts ascending
// (lossindex.Index), so each run of cells whose slots share a contract
// is exactly one entry's non-zero cells. Summed from +0 in layer order,
// a run has the bits of the entry's whole frame summed: a dropped cell
// is ±0, and adding ±0 to a sum that starts at +0 moves no bit. An
// entry with no non-zero cell sums to +0, and +0 or NaN never raises a
// maximum that starts at +0, so skipping it is exact too.
func raiseContractMaxima(perContract []*ylt.Table, slot int, slotContract []int32, rec []float64, dst []int32) {
	for j := 0; j < len(rec); {
		ci := slotContract[dst[j]]
		var sum float64
		for ; j < len(rec) && slotContract[dst[j]] == ci; j++ {
			sum += rec[j]
		}
		if occ := perContract[ci].OccMax; sum > occ[slot] {
			occ[slot] = sum
		}
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
// skipped without evaluating it; a layer whose retention a loss does
// not exceed recovers +0, so it adds nothing and is not marked.
func blockSampledOccurrences(b *kernelBlock, fx *lossindex.Flat, seed uint64, base int, hs *hits, occMaxOut []float64) {
	ft := fx.Terms
	expOff, layerOff, contract := fx.ExpOff, fx.LayerOff, fx.Contract
	sampleConst, sampleA, sampleB, sampleScale := fx.SampleConst, fx.SampleA, fx.SampleB, fx.SampleScale
	occRet, occLim, minOccRet := ft.OccRet, ft.OccLim, ft.MinOccRet
	perContract := b.perContract
	offs := b.batch.Offsets
	streamBase := offs[b.t0]
	h0 := 0
	for t := b.t0; t < b.t1; t++ {
		h1 := hs.next(h0, int32(offs[t+1]-streamBase))
		if h0 == h1 {
			occMaxOut[t-b.t0] = 0
			continue
		}
		st := rng.NewStream(seed, uint64(base+t))
		row, mark := b.row(t)
		slot := b.slot + t - b.t0
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
					if ret := occRet[fl]; loss > ret {
						r := loss - ret
						if lim := occLim[fl]; r > lim {
							r = lim
						}
						row[fl] += r
						markSlot(mark, fl)
						contractOcc += r
					}
				}
				portfolioOccLoss += contractOcc
				if perContract != nil {
					if occ := perContract[contract[k]].OccMax; contractOcc > occ[slot] {
						occ[slot] = contractOcc
					}
				}
			}
			if portfolioOccLoss > occMax {
				occMax = portfolioOccLoss
			}
		}
		occMaxOut[t-b.t0] = occMax
		h0 = h1
	}
}

// blockAnnualTouched is the annual stage: for each trial of the block
// it walks the set bits of the trial's touched-slot bitmap in
// ascending slot order, applies the inlined FlatTerms.ApplyAggregate
// clamp, min(max(sum-ret, 0), lim) · share, to each marked slot's
// annual sum, adds the recoveries of one contract's slots into its
// contract sum in declaration order, and each contract sum into the
// portfolio's in portfolio order. When per-contract tables are kept, it
// writes each contract's running sum into the contract's Agg column at
// every slot, so the last write is the contract's annual recovery; a
// contract with no marked slot keeps the table's +0. It re-zeroes every
// cell and bitmap word it read. Unmarked slots and contracts would add
// +0 (see the top of this file), so the sums are bit-identical to
// visiting every slot.
//
// Whether a slot pays and whether it opens a new contract follow the
// data in no pattern a branch predictor could learn, so both are
// conditional moves: a slot that does not pay recovers +0 · share, and
// at a slot that does not open a contract the portfolio sum adds +0 —
// both exact, since no sum here is ever −0 (a recovery is +0, positive
// or +Inf: a NaN sum or retention does not pay).
//
// The product r · share is converted to float64 before it is added so
// that it rounds on its own: without the conversion a compiler may fuse
// the multiply and the add into one instruction (arm64 does), which
// rounds once and moves the sum off LegacyLookup's bits.
func blockAnnualTouched(b *kernelBlock, fx *lossindex.Flat, aggOut []float64) {
	ft := fx.Terms
	aggRet, aggLim, share := ft.AggRet, ft.AggLim, ft.Share
	slotContract := fx.SlotContract
	perContract := b.perContract
	for t := b.t0; t < b.t1; t++ {
		i := t - b.t0
		slot := b.slot + i
		row, mark := b.row(t)
		var agg, ca float64
		cur := int32(-1)
		for w, word := range mark {
			if word == 0 {
				continue
			}
			mark[w] = 0
			for ; word != 0; word &= word - 1 {
				fl := w<<6 | bits.TrailingZeros64(word)
				ci := slotContract[fl]
				opens := onesIf(ci != cur)
				agg += masked(ca, opens)
				ca = masked(ca, ^opens)
				cur = ci

				sum := row[fl]
				row[fl] = 0
				ret := aggRet[fl]
				r := masked(sum-ret, onesIf(sum > ret))
				if lim := aggLim[fl]; r > lim {
					r = lim
				}
				ca += float64(r * share[fl])
				if perContract != nil {
					perContract[ci].Agg[slot] = ca
				}
			}
		}
		aggOut[i] = agg + ca
	}
}

// onesIf returns a mask of all ones when c holds and of zeros when it
// does not; the compiler makes it a conditional move.
func onesIf(c bool) uint64 {
	if c {
		return ^uint64(0)
	}
	return 0
}

// masked returns x under a mask of all ones and +0 under a mask of
// zeros.
func masked(x float64, m uint64) float64 {
	return math.Float64frombits(math.Float64bits(x) & m)
}
