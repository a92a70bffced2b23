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
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
		SigmaI:       math.Sqrt(a.SigmaI*a.SigmaI + b.SigmaI*b.SigmaI),
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

// --- binary codec ---

// Binary layout: magic "ELT1", u32 contractID, u32 count, then per
// record u32 eventID + 4 float64s, all little-endian. The format is a
// stand-in for the "small number of very large tables" stage-1 storage;
// it streams, it does not seek.
var magic = [4]byte{'E', 'L', 'T', '1'}

// ErrBadFormat is returned when decoding encounters a malformed table.
var ErrBadFormat = errors.New("elt: bad format")

const recordSize = 4 + 8*4

// WriteTo serializes the table. It implements io.WriterTo.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var written int64
	if _, err := bw.Write(magic[:]); err != nil {
		return written, err
	}
	written += 4
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], t.ContractID)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(t.Records)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return written, err
	}
	written += 8
	var buf [recordSize]byte
	for _, r := range t.Records {
		binary.LittleEndian.PutUint32(buf[0:4], r.EventID)
		binary.LittleEndian.PutUint64(buf[4:12], math.Float64bits(r.MeanLoss))
		binary.LittleEndian.PutUint64(buf[12:20], math.Float64bits(r.SigmaI))
		binary.LittleEndian.PutUint64(buf[20:28], math.Float64bits(r.SigmaC))
		binary.LittleEndian.PutUint64(buf[28:36], math.Float64bits(r.ExposedValue))
		if _, err := bw.Write(buf[:]); err != nil {
			return written, err
		}
		written += recordSize
	}
	return written, bw.Flush()
}

// Read deserializes a table written by WriteTo.
func Read(r io.Reader) (*Table, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("elt: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadFormat, m)
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("elt: reading header: %w", err)
	}
	contractID := binary.LittleEndian.Uint32(hdr[0:4])
	count := binary.LittleEndian.Uint32(hdr[4:8])
	const maxRecords = 1 << 28 // 256M records ≈ 9.7 GB; refuse absurd headers
	if count > maxRecords {
		return nil, fmt.Errorf("%w: record count %d too large", ErrBadFormat, count)
	}
	// Cap the initial allocation and grow with the data actually read,
	// so a forged header declaring 2^28 records cannot reserve
	// gigabytes before the short read surfaces (the codec fuzzer's
	// finding).
	const preallocCap = 1 << 16
	recs := make([]Record, 0, min(count, preallocCap))
	var buf [recordSize]byte
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("elt: reading record %d: %w", i, err)
		}
		recs = append(recs, Record{
			EventID:      binary.LittleEndian.Uint32(buf[0:4]),
			MeanLoss:     math.Float64frombits(binary.LittleEndian.Uint64(buf[4:12])),
			SigmaI:       math.Float64frombits(binary.LittleEndian.Uint64(buf[12:20])),
			SigmaC:       math.Float64frombits(binary.LittleEndian.Uint64(buf[20:28])),
			ExposedValue: math.Float64frombits(binary.LittleEndian.Uint64(buf[28:36])),
		})
	}
	t := &Table{ContractID: contractID, Records: recs}
	// Stored tables are sorted; tolerate unsorted input defensively.
	if !sort.SliceIsSorted(t.Records, func(i, j int) bool { return t.Records[i].EventID < t.Records[j].EventID }) {
		t.normalize()
	}
	// Checked after coalescing, which can overflow two finite
	// duplicates into an infinite moment.
	for _, rec := range t.Records {
		if !rec.finite() {
			return nil, fmt.Errorf("%w: event %d has a non-finite moment", ErrBadFormat, rec.EventID)
		}
	}
	return t, nil
}

// SizeBytes returns the serialized size of the table.
func (t *Table) SizeBytes() int64 {
	return int64(4 + 8 + len(t.Records)*recordSize)
}
