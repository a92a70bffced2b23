// Package metrics derives portfolio risk measures from Year-Loss
// Tables: "From a YLT, a reinsurer can derive important portfolio risk
// metrics such as the Probable Maximum Loss (PML) and the Tail Value
// at Risk (TVAR) which are used for both internal risk management and
// reporting to regulators and rating agencies" (§II).
//
// Conventions: exceedance-probability curves come in occurrence form
// (OEP, from per-trial maximum occurrence losses) and aggregate form
// (AEP, from per-trial annual losses). PML at a return period R is the
// OEP loss quantile with exceedance probability 1/R; VaR/TVaR are
// quantile and tail-conditional mean of the aggregate distribution.
package metrics

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/mathx"
	"repro/internal/ylt"
)

// ErrNoData is returned when a metric is requested over no trials.
var ErrNoData = errors.New("metrics: no data")

// ErrNoOccurrence is returned for occurrence-basis metrics on a YLT
// without occurrence detail.
var ErrNoOccurrence = errors.New("metrics: YLT has no occurrence data")

// StandardReturnPeriods are the rows reinsurers conventionally report.
var StandardReturnPeriods = []float64{2, 5, 10, 25, 50, 100, 250, 500, 1000}

// EPCurve is an exceedance-probability curve built from per-trial
// losses: it answers the loss at a given exceedance probability.
//
// It does not sort its column. A quantile reads at most two order
// statistics (mathx.QuantileRank names them), so each query selects
// just the ranks its levels read, in the curve's own copy of the losses
// (selectRanks), in sort.Float64s' order: NaNs first. An endpoint (a
// level ≤ 0 or ≥ 1, one whose upper rank would be past the last, or a
// single trial) is the minimum or the maximum as the builtin min and
// max take them: a NaN minimum when any loss is NaN, a NaN maximum only
// when every loss is, and between -0 and +0 the minimum is -0 and the
// maximum +0. Between two ranks the interpolation gives the same bits
// whichever zero sits where.
//
// A query reorders the copy, so an EPCurve is not safe for concurrent
// use.
type EPCurve struct {
	xs     []float64 // the losses, xs[:nan] the NaNs among them
	nan    int
	sorted bool // xs is a caller's ascending column, read as it is
}

// NewEPCurve builds a curve from per-trial losses (copied, not sorted).
func NewEPCurve(losses []float64) (*EPCurve, error) {
	if len(losses) == 0 {
		return nil, ErrNoData
	}
	xs := slices.Clone(losses)
	nan := 0
	for i, x := range xs {
		if x != x {
			xs[i], xs[nan] = xs[nan], x
			nan++
		}
	}
	return &EPCurve{xs: xs, nan: nan}, nil
}

// Trials returns the number of trials behind the curve.
func (c *EPCurve) Trials() int { return len(c.xs) }

// LossAt returns the loss with exceedance probability p — the
// (1-p)-quantile of the trial losses. A NaN p gives NaN.
func (c *EPCurve) LossAt(p float64) float64 {
	return c.quantiles(exceedanceLevel(p))[0]
}

// LossAtReturnPeriod returns the loss exceeded on average once every
// rp years. rp must be > 1 trial period.
func (c *EPCurve) LossAtReturnPeriod(rp float64) (float64, error) {
	if !(rp > 1) {
		return 0, fmt.Errorf("metrics: return period %g must exceed 1", rp)
	}
	return c.LossAt(1 / rp), nil
}

// exceedanceLevel is the quantile level LossAt(p) reads.
func exceedanceLevel(p float64) float64 { return 1 - mathx.Clamp(p, 0, 1) }

// quantiles returns the q-quantile of the losses for each level in qs,
// with the bits mathx.QuantileSorted reads from the sorted column. It
// first selects, in one multi-selection, every rank the levels read.
func (c *EPCurve) quantiles(qs ...float64) []float64 {
	n := len(c.xs)
	if !c.sorted {
		var ks []int // ranks within the non-NaN losses xs[nan:]
		for _, q := range qs {
			if i, _, ok := mathx.QuantileRank(n, q); ok {
				ks = append(ks, i-c.nan, i+1-c.nan)
			}
		}
		slices.Sort(ks)
		ks = slices.Compact(ks)
		first, _ := slices.BinarySearch(ks, 0) // ranks below nan hold NaNs already
		tail := c.xs[c.nan:]
		selectRanks(tail, 0, len(tail), ks[first:], 2*bits.Len(uint(len(tail))))
	}
	out := make([]float64, len(qs))
	for j, q := range qs {
		switch _, _, ok := mathx.QuantileRank(n, q); {
		case ok:
			out[j] = mathx.QuantileSorted(c.xs, q)
		case q != q:
			out[j] = math.NaN()
		case q <= 0:
			m := c.xs[0]
			for _, x := range c.xs {
				m = min(m, x)
			}
			out[j] = m
		default:
			m := c.xs[n-1]
			for _, x := range c.xs[c.nan:] {
				m = max(m, x)
			}
			out[j] = m
		}
	}
	return out
}

// selectRanks reorders xs[lo:hi], which holds no NaN, so that each rank
// in ks (ascending, distinct, all in [lo, hi)) holds the element an
// ascending sort would put there. It is quickselect over several ranks
// at once, O(n log k) for k ranks: a median-of-3 pivot, a three-way
// partition (a cat column is mostly zeros, and a rank among the pivot's
// equals is done), and a descent only into the sides that still hold a
// rank. A segment of 12 or fewer, or one still unresolved after depth
// partitions, is sorted outright (slices.Sort sorts the short ones by
// insertion), which bounds the worst case at O(n log n).
func selectRanks(xs []float64, lo, hi int, ks []int, depth int) {
	for len(ks) > 0 {
		if hi-lo <= 12 || depth == 0 {
			slices.Sort(xs[lo:hi])
			return
		}
		depth--
		lt, gt := partition3(xs, lo, hi)
		l, _ := slices.BinarySearch(ks, lt)
		r, _ := slices.BinarySearch(ks, gt)
		selectRanks(xs, lo, lt, ks[:l], depth)
		lo, ks = gt, ks[r:]
	}
}

// partition3 partitions xs[lo:hi] around the median of its first,
// middle and last elements: afterwards xs[lo:lt] < pivot, xs[lt:gt] ==
// pivot and xs[gt:hi] > pivot. It makes two Lomuto passes, the first
// over the segment (less than the pivot or not), the second over what
// is not less (equal or greater). Each step swaps the element with the
// boundary and advances the boundary by 0 or 1, with no branch on the
// comparison: over a column of random losses a branch would be
// mispredicted half the time.
func partition3(xs []float64, lo, hi int) (lt, gt int) {
	s := xs[lo:hi]
	a, p, c := s[0], s[len(s)/2], s[len(s)-1]
	if a > p {
		a, p = p, a
	}
	if p > c {
		p = c
	}
	p = max(a, p)
	less := 0
	for i, x := range s {
		s[i] = s[less]
		s[less] = x
		less += b2i(x < p)
	}
	rest := s[less:]
	eq := 0
	for i, x := range rest {
		rest[i] = rest[eq]
		rest[eq] = x
		eq += b2i(x == p)
	}
	return lo + less, lo + less + eq
}

// b2i is 1 for true; the compiler makes it a flag move, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// errNaNLevel is returned for a NaN confidence level.
var errNaNLevel = errors.New("metrics: confidence level is NaN")

// VaR returns the p-quantile of per-trial losses (value at risk at
// confidence p, e.g. 0.99). It copies and sorts the column
// (mathx.Quantile); a View selects instead.
func VaR(losses []float64, p float64) (float64, error) {
	if p != p {
		return 0, errNaNLevel
	}
	if len(losses) == 0 {
		return 0, ErrNoData
	}
	return mathx.Quantile(losses, p)
}

// TVaR returns the tail value at risk at confidence p: the mean of
// losses at or above the p-quantile. TVaR(p) >= VaR(p) always.
func TVaR(losses []float64, p float64) (float64, error) {
	v, err := VaR(losses, p)
	if err != nil {
		return 0, err
	}
	return tailMean(losses, v), nil
}

// tailMean returns the mean of the losses at or above v, or v itself
// when there are none. It sums in trial order, not over a sorted
// column: float addition does not commute bit for bit, and the order of
// these additions is part of every digest pinned on a summary.
func tailMean(losses []float64, v float64) float64 {
	var sum float64
	var n int
	for _, l := range losses {
		if l >= v {
			sum += l
			n++
		}
	}
	if n == 0 {
		return v
	}
	return sum / float64(n)
}

// Summary is the standard one-portfolio risk report. Its JSON tags are
// the keys the serving tier writes it under.
type Summary struct {
	Name       string      `json:"name"`
	Trials     int         `json:"trials"`
	AAL        float64     `json:"aal"` // average annual loss
	AggStdDev  float64     `json:"stddev"`
	VaR99      float64     `json:"var99"`
	TVaR99     float64     `json:"tvar99"`
	VaR995     float64     `json:"var995"`
	TVaR995    float64     `json:"tvar995"`
	ReturnRows []ReturnRow `json:"return_periods"` // ascending ReturnPeriod
}

// ReturnRow is one line of the return-period table.
type ReturnRow struct {
	ReturnPeriod float64 `json:"years"`
	OEP          float64 `json:"oep"` // occurrence exceedance (PML) — 0 if unavailable
	AEP          float64 `json:"aep"` // aggregate exceedance
}

// View is a YLT with an EP curve over each loss column. Every order
// statistic a report needs — both EP curves, VaR, the PML — is selected
// in the curves' copies of the columns, and only the ranks asked for: a
// Summary pays one multi-selection per column, a quote that wants TVaR99
// and PML250 selects two ranks in each, and a column NewViewSorted is
// handed sorted is read as it is. The table must not change while the
// view is in use.
//
// A View is not safe for concurrent use: its curves reorder their
// copies as they select. Views that share an occurrence curve
// (NewViewSorted's occOf) count as one view for this.
type View struct {
	t   *ylt.Table
	aep *EPCurve
	oep *EPCurve // nil when the table has no occurrence detail
}

// NewView copies t's columns. It returns ErrNoData for an empty table.
func NewView(t *ylt.Table) (*View, error) {
	return NewViewSorted(t, nil, nil)
}

// NewViewSorted is NewView for a caller that already holds a sorted
// column, or the view of a table with the same occurrence column, so
// that a pass copies and selects in each distinct column once:
//
//   - aggSorted, when non-nil, is used as t.Agg in ascending order (kept,
//     not copied, and read as it is). It must have t's length and be
//     ascending — checked here in O(n), where a wrong column would
//     otherwise surface as a wrong quantile.
//   - occOf, when non-nil, is a view of a table whose OccMax column is
//     element for element t's (stage 3's enterprise table carries a copy
//     of the catastrophe table's): the two views then share one
//     occurrence curve. The equality is checked too.
//
// A nil argument means "copy it here", so NewViewSorted(t, nil, nil) is
// NewView(t).
func NewViewSorted(t *ylt.Table, aggSorted []float64, occOf *View) (*View, error) {
	v := &View{t: t}
	if aggSorted == nil {
		aep, err := NewEPCurve(t.Agg)
		if err != nil {
			return nil, err
		}
		v.aep = aep
	} else {
		if len(aggSorted) != len(t.Agg) {
			return nil, fmt.Errorf("metrics: sorted column has %d trials, table %q has %d", len(aggSorted), t.Name, len(t.Agg))
		}
		if len(aggSorted) == 0 {
			return nil, ErrNoData
		}
		for i := 1; i < len(aggSorted); i++ {
			if !(aggSorted[i-1] <= aggSorted[i]) {
				return nil, fmt.Errorf("metrics: sorted column of table %q is not ascending at %d", t.Name, i)
			}
		}
		v.aep = &EPCurve{xs: aggSorted, sorted: true}
	}
	switch {
	case !t.HasOccurrence():
	case occOf == nil:
		oep, err := NewEPCurve(t.OccMax)
		if err != nil {
			return nil, err
		}
		v.oep = oep
	case occOf.oep == nil || !slices.Equal(t.OccMax, occOf.t.OccMax):
		return nil, fmt.Errorf("metrics: table %q does not have the occurrence column of %q", t.Name, occOf.t.Name)
	default:
		v.oep = occOf.oep
	}
	return v, nil
}

// Summary computes the standard report. OEP columns are filled only
// when the table has occurrence detail.
func (v *View) Summary() (*Summary, error) {
	t := v.t
	s := &Summary{
		Name:      t.Name,
		Trials:    t.NumTrials(),
		AAL:       t.Mean(),
		AggStdDev: t.StdDev(),
	}
	var rps []float64
	levels := []float64{0.99, 0.995}
	for _, rp := range StandardReturnPeriods {
		if float64(s.Trials) < rp {
			continue // not enough trials to resolve this tail
		}
		rps = append(rps, rp)
		levels = append(levels, exceedanceLevel(1/rp))
	}
	agg := v.aep.quantiles(levels...)
	s.VaR99, s.VaR995 = agg[0], agg[1]
	s.TVaR99 = tailMean(t.Agg, s.VaR99)
	s.TVaR995 = tailMean(t.Agg, s.VaR995)
	var occ []float64
	if v.oep != nil {
		occ = v.oep.quantiles(levels[2:]...)
	}
	for j, rp := range rps {
		row := ReturnRow{ReturnPeriod: rp, AEP: agg[2+j]}
		if occ != nil {
			row.OEP = occ[j]
		}
		s.ReturnRows = append(s.ReturnRows, row)
	}
	return s, nil
}

// TVaR returns the tail value at risk of the aggregate column at
// confidence p, as TVaR(t.Agg, p) does, selecting only the ranks its VaR
// reads.
func (v *View) TVaR(p float64) (float64, error) {
	if p != p {
		return 0, errNaNLevel
	}
	return tailMean(v.t.Agg, v.aep.quantiles(p)[0]), nil
}

// PML returns the probable maximum loss at a return period — the
// occurrence-basis exceedance loss, per Woo's definition the paper
// cites [8].
func (v *View) PML(returnPeriod float64) (float64, error) {
	if v.oep == nil {
		return 0, ErrNoOccurrence
	}
	return v.oep.LossAtReturnPeriod(returnPeriod)
}

// Summarize computes the standard report from a YLT: NewView then
// Summary.
func Summarize(t *ylt.Table) (*Summary, error) {
	v, err := NewView(t)
	if err != nil {
		return nil, err
	}
	return v.Summary()
}

// PML returns the probable maximum loss of t at a return period,
// selecting in the occurrence column only. A caller that also wants the
// Summary should build one View and ask it for both.
func PML(t *ylt.Table, returnPeriod float64) (float64, error) {
	if !t.HasOccurrence() {
		return 0, ErrNoOccurrence
	}
	c, err := NewEPCurve(t.OccMax)
	if err != nil {
		return 0, err
	}
	return c.LossAtReturnPeriod(returnPeriod)
}

// String renders the summary as the fixed-width report the CLI tools
// print.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Portfolio: %s  (%d trials)\n", s.Name, s.Trials)
	fmt.Fprintf(&b, "  AAL:        %16.2f\n", s.AAL)
	fmt.Fprintf(&b, "  Std dev:    %16.2f\n", s.AggStdDev)
	fmt.Fprintf(&b, "  VaR 99%%:    %16.2f   TVaR 99%%:  %16.2f\n", s.VaR99, s.TVaR99)
	fmt.Fprintf(&b, "  VaR 99.5%%:  %16.2f   TVaR 99.5%%:%16.2f\n", s.VaR995, s.TVaR995)
	if len(s.ReturnRows) > 0 {
		fmt.Fprintf(&b, "  %10s %18s %18s\n", "RP (yr)", "OEP (PML)", "AEP")
		for _, r := range s.ReturnRows {
			fmt.Fprintf(&b, "  %10.0f %18.2f %18.2f\n", r.ReturnPeriod, r.OEP, r.AEP)
		}
	}
	return b.String()
}
