// Package elt implements the Event-Loss Table, the artifact stage 1
// produces and stage 2 consumes: "An ELT is the risk associated with an
// individual reinsurance contract, and is the output of the first
// stage" (§II).
//
// Each record carries the loss distribution a single catalogue event
// inflicts on the contract, in the industry-standard moment form:
// mean loss, independent and correlated standard deviations, and the
// exposed value (the maximum possible loss). Tables are kept sorted by
// event ID; lookup is binary search, the access pattern the aggregate
// engines rely on.
package elt

import (
	"math"
	"sort"

	"repro/internal/rng"
)

// Record is one event's loss distribution on a contract.
type Record struct {
	EventID uint32
	// MeanLoss is the expected gross loss if the event occurs.
	MeanLoss float64
	// SigmaI is the independent (site-diversifiable) loss std dev.
	SigmaI float64
	// SigmaC is the correlated (systemic) loss std dev.
	SigmaC float64
	// ExposedValue is the maximum possible loss (limit of the
	// distribution's support).
	ExposedValue float64
}

// finite reports whether every moment of r is a finite number.
func (r Record) finite() bool {
	for _, v := range [...]float64{r.MeanLoss, r.SigmaI, r.SigmaC, r.ExposedValue} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Sigma returns the total standard deviation. Following ELT
// convention the independent and correlated components are stored
// separately and added when a single spread is needed.
func (r Record) Sigma() float64 {
	return r.SigmaI + r.SigmaC
}

// Table is an Event-Loss Table for one contract, sorted by EventID.
type Table struct {
	ContractID uint32
	Records    []Record
}

// New returns a table over the given records, sorting them by event ID
// and coalescing duplicates by moment addition.
func New(contractID uint32, records []Record) *Table {
	t := &Table{ContractID: contractID, Records: records}
	t.normalize()
	return t
}

func (t *Table) normalize() {
	sort.Slice(t.Records, func(i, j int) bool { return t.Records[i].EventID < t.Records[j].EventID })
	out := t.Records[:0]
	for _, r := range t.Records {
		if n := len(out); n > 0 && out[n-1].EventID == r.EventID {
			out[n-1] = addRecords(out[n-1], r)
			continue
		}
		out = append(out, r)
	}
	t.Records = out
}

// addRecords merges two loss distributions for the same event on
// (sub)portfolios: means and exposed values add, correlated sigmas add
// linearly, independent sigmas add in quadrature.
func addRecords(a, b Record) Record {
	return Record{
		EventID:      a.EventID,
		MeanLoss:     a.MeanLoss + b.MeanLoss,
		SigmaI:       math.Sqrt(float64(a.SigmaI*a.SigmaI) + float64(b.SigmaI*b.SigmaI)),
		SigmaC:       a.SigmaC + b.SigmaC,
		ExposedValue: a.ExposedValue + b.ExposedValue,
	}
}

// Len returns the number of event records.
func (t *Table) Len() int { return len(t.Records) }

// Lookup returns the record for an event ID via binary search.
func (t *Table) Lookup(eventID uint32) (Record, bool) {
	i := sort.Search(len(t.Records), func(i int) bool { return t.Records[i].EventID >= eventID })
	if i < len(t.Records) && t.Records[i].EventID == eventID {
		return t.Records[i], true
	}
	return Record{}, false
}

// ExpectedLoss returns the summed mean loss across all events (the
// contract's loss if every catalogue event occurred exactly once).
func (t *Table) ExpectedLoss() float64 {
	var s float64
	for _, r := range t.Records {
		s += r.MeanLoss
	}
	return s
}

// SampleParams resolves a record's secondary-uncertainty sampling
// plan: the method-of-moments beta parameters (a, b) with the
// ExposedValue scale when a draw is needed (a > 0), or the constant
// the degenerate branches collapse to (a == 0, value in c). It is the
// per-record half of SampleLoss, split out so scan-oriented layouts
// can precompute it once per (event, contract) entry instead of
// re-deriving it for every one of millions of trials; SampleLoss
// delegates here, so the two can never diverge. A record with a NaN
// or infinite moment has no distribution to match and gets the plan
// for no loss.
func SampleParams(r Record) (c, a, b, scale float64) {
	if !r.finite() || r.MeanLoss <= 0 || r.ExposedValue <= 0 {
		return 0, 0, 0, 0
	}
	sigma := r.Sigma()
	if sigma <= 0 {
		return r.MeanLoss, 0, 0, 0
	}
	mu := r.MeanLoss / r.ExposedValue
	v := (sigma / r.ExposedValue) * (sigma / r.ExposedValue)
	if mu >= 1 {
		return r.ExposedValue, 0, 0, 0
	}
	maxV := mu * (1 - mu)
	if v >= maxV {
		v = maxV * 0.99
	}
	k := mu*(1-mu)/v - 1
	if k <= 0 {
		return r.MeanLoss, 0, 0, 0
	}
	return 0, mu * k, (1 - mu) * k, r.ExposedValue
}

// SampleLoss draws a realized loss for record r using the
// industry-standard beta-on-[0, ExposedValue] secondary-uncertainty
// model: mean and sigma are matched by method of moments. Degenerate
// parameters fall back to the mean (or the distribution's bounds)
// without consuming a draw. It draws exactly when a > 0, the test the
// stage-2 kernels make on the precomputed plan.
func SampleLoss(st *rng.Stream, r Record) float64 {
	c, a, b, scale := SampleParams(r)
	if !(a > 0) {
		return c
	}
	return scale * st.Beta(a, b)
}

// recordSize is one record's bytes: a u32 event ID and four float64
// moments.
const recordSize = 4 + 8*4

// SizeBytes returns the bytes a table counts for as stage-1 output: a
// 12-B header (a 4-B tag, the u32 contract ID and the u32 record count)
// plus 36 B per record. The pipeline's risk-modelling stage reports
// their sum over the book as its output bytes.
func (t *Table) SizeBytes() int64 {
	return int64(4 + 8 + len(t.Records)*recordSize)
}
