package layers

import (
	"fmt"
	"math"
)

// FlatTerms is the structure-of-arrays flattening of a portfolio's
// layer terms: one contiguous column per term across every layer of
// every contract, framed per contract by First. It is the layout the
// flat trial kernel scans — the paper's "scanned over rather than
// randomly accessed" restructuring applied to the financial terms
// themselves: the kernel touches no Layer structs and no nested
// per-contract slices, only dense float64 columns.
//
// Sentinel encodings are resolved at flatten time so the hot loop is
// branch-minimal: unlimited limits (0 in Layer) are stored as +Inf —
// a finite recovery never exceeds +Inf, so the unconditional clamp is
// a no-op exactly where Layer skipped it — and zero shares are stored
// as 1, matching ApplyAggregate's normalization. Both preserve
// Layer's arithmetic bit-for-bit (the round-trip property test pins
// this).
//
// FlatTerms is immutable after FlattenTerms and safe for concurrent
// readers.
type FlatTerms struct {
	// First frames contracts: contract ci's layers occupy flat slots
	// [First[ci], First[ci+1]). len(First) is numContracts+1.
	First []int32
	// Term columns, indexed by flat slot.
	OccRet []float64
	OccLim []float64 // +Inf when the layer's occurrence limit is unlimited
	AggRet []float64
	AggLim []float64 // +Inf when the layer's aggregate limit is unlimited
	Share  []float64 // zero shares normalized to 1
	// MinOccRet is per contract: the lowest OccRet of contract ci's
	// layers (NaN if any is NaN). A loss at or below it recovers 0
	// through every layer of the contract, which lets the sampling
	// kernels skip evaluating such a loss (rng.Stream.ScaledBetaAbove).
	MinOccRet []float64
	// YearStates is the year-state template of the book's reinstatement
	// terms, nil when no layer declares any: the kernels run a book
	// with a template through the stateful occurrence-ordered walk.
	YearStates *FlatYearStates
}

// FlattenTerms extracts a portfolio's layer terms into the flat SoA
// form, validating the portfolio first (the same checks the engines'
// Validate performs, so a FlatTerms never holds inconsistent terms).
func FlattenTerms(pf *Portfolio) (*FlatTerms, error) {
	if pf == nil {
		return nil, fmt.Errorf("%w: nil portfolio", ErrInvalidLayer)
	}
	if err := pf.Validate(); err != nil {
		return nil, err
	}
	total := 0
	for _, c := range pf.Contracts {
		total += len(c.Layers)
	}
	ft := &FlatTerms{
		First:  make([]int32, len(pf.Contracts)+1),
		OccRet: make([]float64, total),
		OccLim: make([]float64, total),
		AggRet: make([]float64, total),
		AggLim: make([]float64, total),
		Share:  make([]float64, total),

		MinOccRet: make([]float64, len(pf.Contracts)),
	}
	fl := int32(0)
	for ci, c := range pf.Contracts {
		ft.First[ci] = fl
		ft.MinOccRet[ci] = math.Inf(1)
		for _, l := range c.Layers {
			ft.MinOccRet[ci] = math.Min(ft.MinOccRet[ci], l.OccRetention)
			ft.OccRet[fl] = l.OccRetention
			ft.OccLim[fl] = limitOrInf(l.OccLimit)
			ft.AggRet[fl] = l.AggRetention
			ft.AggLim[fl] = limitOrInf(l.AggLimit)
			share := l.Share
			if share == 0 {
				share = 1
			}
			ft.Share[fl] = share
			fl++
		}
	}
	ft.First[len(pf.Contracts)] = fl
	ft.YearStates = flattenYearStates(ft, pf)
	return ft, nil
}

func limitOrInf(lim float64) float64 {
	if lim <= 0 {
		return math.Inf(1)
	}
	return lim
}

// NumLayers returns the total number of flattened layers.
func (ft *FlatTerms) NumLayers() int { return len(ft.OccRet) }

// ApplyOccurrence is Layer.ApplyOccurrence over flat slot fl:
// min(max(loss - occRet, 0), occLim). Bit-identical to the Layer
// method for any loss, NaN losses and retentions included (the +Inf
// sentinel makes the clamp a no-op where Layer skipped it).
func (ft *FlatTerms) ApplyOccurrence(fl int32, loss float64) float64 {
	ret := ft.OccRet[fl]
	if !(loss > ret) {
		return 0
	}
	r := loss - ret
	if lim := ft.OccLim[fl]; r > lim {
		r = lim
	}
	return r
}

// ApplyAggregate is Layer.ApplyAggregate over flat slot fl:
// min(max(sum - aggRet, 0), aggLim) · share, bit-identical to the
// Layer method (shares were normalized at flatten time), NaN sums and
// retentions included.
func (ft *FlatTerms) ApplyAggregate(fl int32, sum float64) float64 {
	ret := ft.AggRet[fl]
	if !(sum > ret) {
		return 0
	}
	r := sum - ret
	if lim := ft.AggLim[fl]; r > lim {
		r = lim
	}
	return r * ft.Share[fl]
}

// SizeBytes returns the in-memory footprint of the flattened terms,
// the year-state template included.
func (ft *FlatTerms) SizeBytes() int64 {
	n := int64(len(ft.First))*4 + int64(ft.NumLayers())*5*8 + int64(len(ft.MinOccRet))*8
	if ft.YearStates != nil {
		n += int64(ft.NumLayers()) * 3 * 8 // the template's three columns
	}
	return n
}
