// Package ylt implements the Year-Loss Table — the output of stage-2
// aggregate analysis and the input to stage-3 DFA (§II): one loss per
// pre-simulated trial year. Because every YLT produced from the same
// YELT indexes trials identically, YLTs combine by aligned per-trial
// addition, which preserves the dependency structure induced by shared
// catastrophe years ("a consistent lens through which to view
// results").
package ylt

import (
	"errors"
	"fmt"

	"repro/internal/mathx"
)

// Table is a Year-Loss Table. Agg holds the annual aggregate loss per
// trial. OccMax optionally holds the largest single-occurrence loss
// per trial, which drives occurrence-basis metrics (OEP/PML); it may
// be nil for YLTs where per-occurrence structure does not exist (e.g.
// investment risk in DFA).
type Table struct {
	Name   string
	Agg    []float64
	OccMax []float64
}

// New returns a zero-filled YLT with n trials, with occurrence data.
func New(name string, n int) *Table {
	return &Table{Name: name, Agg: make([]float64, n), OccMax: make([]float64, n)}
}

// NewAggOnly returns a zero-filled YLT without occurrence structure.
func NewAggOnly(name string, n int) *Table {
	return &Table{Name: name, Agg: make([]float64, n)}
}

// NumTrials returns the number of trial years.
func (t *Table) NumTrials() int { return len(t.Agg) }

// HasOccurrence reports whether per-occurrence maxima are tracked.
func (t *Table) HasOccurrence() bool { return t.OccMax != nil }

// Mean returns the average annual loss (the AAL).
func (t *Table) Mean() float64 { return mathx.Mean(t.Agg) }

// EntryBytes is the encoded footprint per trial (one float64 for Agg;
// occurrence tables carry a second).
const EntryBytes = 8

// SizeBytes returns the encoded size of the table.
func (t *Table) SizeBytes() int64 {
	n := int64(len(t.Agg)) * EntryBytes
	if t.OccMax != nil {
		n += int64(len(t.OccMax)) * EntryBytes
	}
	return 16 + int64(len(t.Name)) + n
}

// ErrTrialMismatch is returned when combining tables with different
// trial counts: aligned addition is only meaningful over the same
// pre-simulated years.
var ErrTrialMismatch = errors.New("ylt: trial count mismatch")

// ErrOccurrenceMismatch is returned by Combine when the inputs mix
// occurrence-bearing and aggregate-only tables: silently dropping the
// OccMax columns would make occurrence metrics vanish from a combined
// table depending on which members happened to be in it.
var ErrOccurrenceMismatch = errors.New("ylt: occurrence coverage mismatch")

// Combine returns the aligned per-trial sum of the given tables. For
// OccMax the element-wise maximum of the inputs is used — a documented
// lower bound on the true combined occurrence maximum (exact
// combination would need event-level detail that the YLT, by design,
// no longer carries). The inputs must agree on occurrence coverage:
// all carry OccMax (result does too) or none do (result is
// aggregate-only). Mixed coverage returns ErrOccurrenceMismatch.
func Combine(name string, tables ...*Table) (*Table, error) {
	if len(tables) == 0 {
		return nil, errors.New("ylt: nothing to combine")
	}
	n := tables[0].NumTrials()
	withOcc := 0
	for _, t := range tables {
		if t.NumTrials() != n {
			return nil, fmt.Errorf("%w: %d vs %d", ErrTrialMismatch, t.NumTrials(), n)
		}
		if t.HasOccurrence() {
			withOcc++
		}
	}
	if withOcc != 0 && withOcc != len(tables) {
		return nil, fmt.Errorf("%w: %d of %d tables carry occurrence data", ErrOccurrenceMismatch, withOcc, len(tables))
	}
	occ := withOcc == len(tables)
	var out *Table
	if occ {
		out = New(name, n)
	} else {
		out = NewAggOnly(name, n)
	}
	for _, t := range tables {
		for i, v := range t.Agg {
			out.Agg[i] += v
		}
		if occ {
			for i, v := range t.OccMax {
				if v > out.OccMax[i] {
					out.OccMax[i] = v
				}
			}
		}
	}
	return out, nil
}
