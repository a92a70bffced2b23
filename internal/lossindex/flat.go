package lossindex

import (
	"fmt"

	"repro/internal/elt"
	"repro/internal/layers"
)

// Flat is the flat structure-of-arrays trial-kernel layout derived
// from an Index and the portfolio's layer terms — the last step of the
// paper's "scanned over rather than randomly accessed" restructuring.
// Where a scan of the index's entries dereferences a Contract struct
// and walks its nested []Layer per entry, the flat layout gives the
// kernel nothing but contiguous arrays, all parallel to the index's
// packed entry order:
//
//	Contract[k]          portfolio contract of entry k (per-contract outputs)
//	LayerOff[k]          first flat layer slot of entry k's contract
//	ExpOff[k]..ExpOff[k+1]  entry k's frame in ExpRec (one cell per layer)
//	ExpRec[...]          pre-applied occurrence recovery of the entry's
//	                     mean loss through each layer (expected mode)
//	ExpDst[e]            flat layer slot ExpRec[e] accumulates into —
//	                     the scatter index that lets the blocked kernel
//	                     sweep a whole event's ExpRec frame in one flat
//	                     loop, no per-entry re-slicing
//	ExpSum[k]            sum of entry k's ExpRec frame, in layer order
//	RowSum[r]            sum of row r's ExpSum values, in entry order —
//	                     the event's whole-portfolio expected occurrence
//	                     recovery, precomputed in exactly the kernels'
//	                     accumulation order (hence bit-identical to the
//	                     per-occurrence running sum it replaces)
//	SampleConst/A/B/Scale[k]  the entry's precomputed sampling plan
//	                     (elt.SampleParams of its record)
//	Terms                the portfolio's layer terms as SoA columns
//	                     (layers.FlatTerms), framed per contract
//
// In expected mode (Sampling=false) the per-(entry, layer) occurrence
// recovery is a constant — min(max(mean-ret,0),lim) never changes
// across trials — so it is applied once here at build time and the
// kernel's inner loop collapses to gather-adds from ExpRec. ExpSum is
// accumulated in the same layer order the kernel used, so substituting
// it for the per-entry running sum is bit-identical. The annual
// aggregate terms still apply per trial (they depend on the per-year
// sums) via Terms.
//
// Flat is immutable after Flatten and safe for concurrent readers —
// every engine worker shares one instance alongside the Index.
type Flat struct {
	ix    *Index
	Terms *layers.FlatTerms

	Contract []int32
	LayerOff []int32
	ExpOff   []int32 // len NumEntries+1
	ExpRec   []float64
	ExpDst   []int32 // parallel to ExpRec
	ExpSum   []float64
	RowSum   []float64 // len Index().NumRows()

	SampleConst []float64
	SampleA     []float64
	SampleB     []float64
	SampleScale []float64
}

// Flatten derives the flat kernel layout from a built index and the
// portfolio it was built for. Like Build it is a pure function of its
// inputs.
func Flatten(ix *Index, pf *layers.Portfolio) (*Flat, error) {
	if ix == nil {
		return nil, fmt.Errorf("lossindex: flatten of nil index")
	}
	if pf == nil || ix.numContracts != len(pf.Contracts) {
		n := 0
		if pf != nil {
			n = len(pf.Contracts)
		}
		return nil, fmt.Errorf("lossindex: flatten: index built for %d contracts, portfolio has %d",
			ix.numContracts, n)
	}
	ft, err := layers.FlattenTerms(pf)
	if err != nil {
		return nil, err
	}

	n := len(ix.entries)
	f := &Flat{
		ix:          ix,
		Terms:       ft,
		Contract:    make([]int32, n),
		LayerOff:    make([]int32, n),
		ExpOff:      make([]int32, n+1),
		ExpSum:      make([]float64, n),
		SampleConst: make([]float64, n),
		SampleA:     make([]float64, n),
		SampleB:     make([]float64, n),
		SampleScale: make([]float64, n),
	}
	var total int32
	for k, e := range ix.entries {
		ci := e.Contract
		f.Contract[k] = ci
		f.LayerOff[k] = ft.First[ci]
		f.ExpOff[k] = total
		total += ft.First[ci+1] - ft.First[ci]
	}
	f.ExpOff[n] = total

	// Pre-apply the occurrence terms to each entry's mean loss through
	// the original Layer methods, so the constants are by construction
	// the values a per-trial Layer.ApplyOccurrence call would return.
	f.ExpRec = make([]float64, total)
	f.ExpDst = make([]int32, total)
	for k, e := range ix.entries {
		c := &pf.Contracts[e.Contract]
		off := f.ExpOff[k]
		var sum float64
		for li := range c.Layers {
			r := c.Layers[li].ApplyOccurrence(e.Rec.MeanLoss)
			f.ExpRec[off+int32(li)] = r
			f.ExpDst[off+int32(li)] = f.LayerOff[k] + int32(li)
			sum += r
		}
		f.ExpSum[k] = sum
		f.SampleConst[k], f.SampleA[k], f.SampleB[k], f.SampleScale[k] = elt.SampleParams(e.Rec)
	}

	// Row totals, accumulated entry-then-layer exactly as the kernels'
	// per-occurrence running sums, so substituting RowSum for them is
	// bit-identical (ExpSum itself was accumulated in layer order above).
	f.RowSum = make([]float64, ix.NumRows())
	for r := 0; r+1 < len(ix.offsets); r++ {
		var s float64
		for k := ix.offsets[r]; k < ix.offsets[r+1]; k++ {
			s += f.ExpSum[k]
		}
		f.RowSum[r] = s
	}
	return f, nil
}

// ExpSpan returns, for an event ID, the contiguous ExpRec frame
// [lo, hi) covering every entry of the event (entries are packed, so
// their per-layer frames concatenate) and the event's precomputed
// whole-portfolio expected occurrence recovery (RowSum). lo == hi and
// a zero sum when the event carries no loss anywhere in the book —
// exactly the running sum an empty span would have produced.
func (f *Flat) ExpSpan(eventID uint32) (lo, hi int32, occSum float64) {
	r := f.ix.Row(eventID)
	if r < 0 {
		return 0, 0, 0
	}
	return f.ExpOff[f.ix.offsets[r]], f.ExpOff[f.ix.offsets[r+1]], f.RowSum[r]
}

// Span returns the packed-entry range [lo, hi) for an event ID — the
// flat kernel's one probe per occurrence (lo == hi when the event
// carries no loss anywhere in the book). Entries k in the span index
// every per-entry column of the Flat.
func (f *Flat) Span(eventID uint32) (lo, hi int32) {
	r := f.ix.Row(eventID)
	if r < 0 {
		return 0, 0
	}
	return f.ix.offsets[r], f.ix.offsets[r+1]
}

// DeviceVectors returns the per-row portfolio recovery vectors the
// device engine uploads: aggVec folds each layer's share into the
// pre-applied occurrence recovery, occVec is the share-free recovery
// that drives OccMax. Both are projected in one linear sweep of the
// packed ExpRec column — no Contract struct walk, no per-record layer
// dispatch. The sweep visits row → entry → layer exactly as the
// legacy per-row construction did, and adding a zero recovery is
// exact, so the vectors are bit-identical to the nested walk they
// replace (TestChunkedVectorsMatchLegacy pins it).
func (f *Flat) DeviceVectors() (aggVec, occVec []float64) {
	rows := f.ix.NumRows()
	aggVec = make([]float64, rows)
	occVec = make([]float64, rows)
	share := f.Terms.Share
	for r := 0; r+1 < len(f.ix.offsets); r++ {
		var av, ov float64
		for k := f.ix.offsets[r]; k < f.ix.offsets[r+1]; k++ {
			for e := f.ExpOff[k]; e < f.ExpOff[k+1]; e++ {
				rec := f.ExpRec[e]
				av += rec * share[f.ExpDst[e]]
				ov += rec
			}
		}
		aggVec[r] = av
		occVec[r] = ov
	}
	return aggVec, occVec
}

// Index returns the index the layout was derived from.
func (f *Flat) Index() *Index { return f.ix }

// NumContracts returns the contract count of the portfolio the layout
// was built for.
func (f *Flat) NumContracts() int { return f.ix.numContracts }

// NumLayers returns the total flattened layer count (the flat kernel's
// per-trial scratch length).
func (f *Flat) NumLayers() int { return f.Terms.NumLayers() }

// NumEntries returns the number of pre-joined entries the layout
// parallels.
func (f *Flat) NumEntries() int { return len(f.Contract) }

// SizeBytes returns the in-memory footprint of the flat layout beyond
// the index it references — the data-volume line the pipeline reports
// next to the index size.
func (f *Flat) SizeBytes() int64 {
	return int64(len(f.Contract))*4 +
		int64(len(f.LayerOff))*4 +
		int64(len(f.ExpOff))*4 +
		int64(len(f.ExpRec))*8 +
		int64(len(f.ExpDst))*4 +
		int64(len(f.ExpSum))*8 +
		int64(len(f.RowSum))*8 +
		int64(len(f.SampleConst)+len(f.SampleA)+len(f.SampleB)+len(f.SampleScale))*8 +
		f.Terms.SizeBytes()
}
