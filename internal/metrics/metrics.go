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
	"slices"
	"sort"
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
type EPCurve struct {
	sorted []float64 // ascending
}

// NewEPCurve builds a curve from per-trial losses (copied, sorted).
func NewEPCurve(losses []float64) (*EPCurve, error) {
	if len(losses) == 0 {
		return nil, ErrNoData
	}
	s := make([]float64, len(losses))
	copy(s, losses)
	sort.Float64s(s)
	return &EPCurve{sorted: s}, nil
}

// Trials returns the number of trials behind the curve.
func (c *EPCurve) Trials() int { return len(c.sorted) }

// LossAt returns the loss with exceedance probability p — the
// (1-p)-quantile of the trial losses.
func (c *EPCurve) LossAt(p float64) float64 {
	return mathx.QuantileSorted(c.sorted, 1-mathx.Clamp(p, 0, 1))
}

// LossAtReturnPeriod returns the loss exceeded on average once every
// rp years. rp must be > 1 trial period.
func (c *EPCurve) LossAtReturnPeriod(rp float64) (float64, error) {
	if rp <= 1 {
		return 0, fmt.Errorf("metrics: return period %g must exceed 1", rp)
	}
	return c.LossAt(1 / rp), nil
}

// VaR returns the p-quantile of per-trial losses (value at risk at
// confidence p, e.g. 0.99).
func VaR(losses []float64, p float64) (float64, error) {
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

// View is a YLT with each loss column sorted once. Every order
// statistic a report needs — both EP curves, VaR, the PML — is read
// from the same ascending copies, so a caller that wants a Summary and
// a PML pays two sorts (one when the table has no occurrence detail)
// however many numbers it asks for — or fewer, when NewViewSorted is
// handed a column someone has sorted already. The table must not change
// while the view is in use.
type View struct {
	t   *ylt.Table
	aep *EPCurve
	oep *EPCurve // nil when the table has no occurrence detail
}

// NewView sorts t's columns. It returns ErrNoData for an empty table.
func NewView(t *ylt.Table) (*View, error) {
	return NewViewSorted(t, nil, nil)
}

// NewViewSorted is NewView for a caller that already holds sorted
// columns, so that a pass sorts each distinct column once:
//
//   - aggSorted, when non-nil, is used as t.Agg in ascending order (kept,
//     not copied). It must have t's length and be ascending — checked
//     here in O(n), where a wrong column would otherwise surface as a
//     wrong quantile.
//   - occOf, when non-nil, is a view of a table whose OccMax column is
//     element for element t's (stage 3's enterprise table carries a copy
//     of the catastrophe table's): the two views then share one sorted
//     occurrence column. The equality is checked too.
//
// A nil argument means "sort it here", so NewViewSorted(t, nil, nil) is
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
		v.aep = &EPCurve{sorted: aggSorted}
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
	s.VaR99 = mathx.QuantileSorted(v.aep.sorted, 0.99)
	s.TVaR99 = tailMean(t.Agg, s.VaR99)
	s.VaR995 = mathx.QuantileSorted(v.aep.sorted, 0.995)
	s.TVaR995 = tailMean(t.Agg, s.VaR995)
	var err error
	for _, rp := range StandardReturnPeriods {
		if float64(s.Trials) < rp {
			continue // not enough trials to resolve this tail
		}
		row := ReturnRow{ReturnPeriod: rp}
		if row.AEP, err = v.aep.LossAtReturnPeriod(rp); err != nil {
			return nil, err
		}
		if v.oep != nil {
			if row.OEP, err = v.oep.LossAtReturnPeriod(rp); err != nil {
				return nil, err
			}
		}
		s.ReturnRows = append(s.ReturnRows, row)
	}
	return s, nil
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
// sorting only the occurrence column. A caller that also wants the
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
