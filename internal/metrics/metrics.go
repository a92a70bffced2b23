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
//
// Every order statistic is selected in place in the caller's column (an
// MSD radix selection over the losses' order keys, select.go): no
// column is sorted, copied or reordered, and a report allocates a few
// kilobytes whatever its trial count. The columns must not change while
// a curve or view over them is in use.
package metrics

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

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
// It reads the caller's column in place: it neither sorts nor copies
// it. A quantile reads at most two order statistics (mathx.QuantileRank
// names them), and each query selects just the ranks its levels read
// (orderKeys: an MSD radix selection over the losses' order keys) in
// sort.Float64s' order: NaNs first. The curve keeps the order
// statistics it has selected, so a second query of the same ranks reads
// no column. An endpoint (a level ≤ 0 or ≥ 1, one whose upper rank
// would be past the last, or a single trial) is the minimum or the
// maximum as the builtin min and max take them: a NaN minimum when any
// loss is NaN, a NaN maximum only when every loss is, and between -0
// and +0 the minimum is -0 and the maximum +0. Between two ranks the
// interpolation gives the same bits whichever zero sits where.
//
// The column must not change while the curve is in use. An EPCurve is
// safe for concurrent use.
type EPCurve struct {
	xs []float64 // the caller's column, read, never written

	mu    sync.Mutex
	stats map[int]float64 // the order statistics selected so far, by rank
}

// NewEPCurve builds a curve over per-trial losses, which it keeps and
// reads in place.
func NewEPCurve(losses []float64) (*EPCurve, error) {
	if len(losses) == 0 {
		return nil, ErrNoData
	}
	return &EPCurve{xs: losses}, nil
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
// first finds, in one multi-selection, every rank the levels read that
// the curve has not found before.
func (c *EPCurve) quantiles(qs ...float64) []float64 {
	n := len(c.xs)
	var ranks []int
	for _, q := range qs {
		switch i, _, ok := mathx.QuantileRank(n, q); {
		case ok:
			ranks = append(ranks, i, i+1)
		case q <= 0:
			ranks = append(ranks, 0)
		case q == q:
			ranks = append(ranks, n-1)
		}
	}
	stats := c.orderStats(ranks)
	at := func(rank int) float64 { return stats[rank] }
	out := make([]float64, len(qs))
	for j, q := range qs {
		out[j] = mathx.QuantileSorted(n, q, at)
	}
	return out
}

// orderStats returns the order statistics at ranks (any order, repeats
// allowed), finding those the curve has not found before: the
// endpoints 0 and n-1 by a scan (min and max), the others in one
// selection. A query holds the curve while it selects, so that a
// concurrent query of the same ranks (two reports over one occurrence
// column) waits and reads them instead of selecting them again.
func (c *EPCurve) orderStats(ranks []int) map[int]float64 {
	stats := make(map[int]float64, len(ranks))
	c.mu.Lock()
	defer c.mu.Unlock()
	var todo []int
	for _, r := range ranks {
		if v, ok := c.stats[r]; ok {
			stats[r] = v
		} else {
			todo = append(todo, r)
		}
	}
	if len(todo) == 0 {
		return stats
	}
	slices.Sort(todo)
	todo = slices.Compact(todo)
	n := len(c.xs)
	if todo[0] == 0 {
		stats[0], todo = c.min(), todo[1:]
	}
	if k := len(todo) - 1; k >= 0 && todo[k] == n-1 {
		stats[n-1], todo = c.max(), todo[:k]
	}
	keys := make([]uint64, len(todo))
	orderKeys(c.xs, todo, keys)
	for j, k := range keys {
		if k == 0 { // a NaN rank: the column's first NaN stands for them all
			stats[todo[j]] = c.xs[slices.IndexFunc(c.xs, math.IsNaN)]
			continue
		}
		stats[todo[j]] = keyValue(k)
	}
	if c.stats == nil {
		c.stats = make(map[int]float64)
	}
	for r, v := range stats {
		c.stats[r] = v
	}
	return stats
}

// min is the smallest loss as the builtin min takes it: NaN when any
// loss is NaN, -0 between -0 and +0.
func (c *EPCurve) min() float64 {
	m := c.xs[0]
	for _, x := range c.xs[1:] {
		m = min(m, x)
	}
	return m
}

// max is the largest loss that is not NaN as the builtin max takes it
// (+0 between -0 and +0), NaN when every loss is.
func (c *EPCurve) max() float64 {
	m := math.NaN()
	for _, x := range c.xs {
		if x == x {
			if m != m {
				m = x
			}
			m = max(m, x)
		}
	}
	return m
}

// errNaNLevel is returned for a NaN confidence level.
var errNaNLevel = errors.New("metrics: confidence level is NaN")

// VaR returns the p-quantile of per-trial losses (value at risk at
// confidence p, e.g. 0.99). It selects the two ranks it reads in place,
// as an EPCurve does; a caller that reads more than one level of a
// column should build one curve or View and ask it for all of them.
func VaR(losses []float64, p float64) (float64, error) {
	if p != p {
		return 0, errNaNLevel
	}
	c, err := NewEPCurve(losses)
	if err != nil {
		return 0, err
	}
	return c.quantiles(p)[0], nil
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
// in place in the table's own columns, and only the ranks asked for: a
// Summary pays one multi-selection per column, and a quote that wants
// TVaR99 and PML250 selects two ranks in each. The table must not
// change while the view is in use. A View is safe for concurrent use.
type View struct {
	t   *ylt.Table
	aep *EPCurve
	oep *EPCurve // nil when the table has no occurrence detail
}

// NewView builds the view of t, which it reads in place. It returns
// ErrNoData for an empty table.
func NewView(t *ylt.Table) (*View, error) {
	return NewViewSorted(t, nil)
}

// NewViewSorted is NewView for a table that holds the OccMax slice of
// the table occOf views (stage 3's enterprise table holds the
// catastrophe table's): the two views then share one occurrence curve,
// so that a pass selects in that column once and the second report
// reads its order statistics from the first's. A table that holds a
// different slice, even an equal copy, is refused. A nil occOf means
// "a curve of its own", so NewViewSorted(t, nil) is NewView(t).
func NewViewSorted(t *ylt.Table, occOf *View) (*View, error) {
	aep, err := NewEPCurve(t.Agg)
	if err != nil {
		return nil, err
	}
	v := &View{t: t, aep: aep}
	switch {
	case !t.HasOccurrence():
	case occOf == nil:
		if v.oep, err = NewEPCurve(t.OccMax); err != nil {
			return nil, err
		}
	case occOf.oep == nil || !sameSlice(t.OccMax, occOf.t.OccMax):
		return nil, fmt.Errorf("metrics: table %q does not hold the occurrence column of %q", t.Name, occOf.t.Name)
	default:
		v.oep = occOf.oep
	}
	return v, nil
}

// sameSlice reports whether a and b are one non-empty slice: the same
// length over the same backing array.
func sameSlice(a, b []float64) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// Summary computes the standard report. OEP columns are filled only
// when the table has occurrence detail.
func (v *View) Summary() (*Summary, error) {
	t := v.t
	s := &Summary{Name: t.Name, Trials: t.NumTrials()}
	s.AAL, s.AggStdDev = mathx.MeanStdDev(t.Agg)
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
