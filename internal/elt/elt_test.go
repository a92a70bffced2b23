package elt

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func sampleTable() *Table {
	return New(7, []Record{
		{EventID: 3, MeanLoss: 100, SigmaI: 30, SigmaC: 10, ExposedValue: 1000},
		{EventID: 1, MeanLoss: 50, SigmaI: 20, SigmaC: 5, ExposedValue: 400},
		{EventID: 9, MeanLoss: 75, SigmaI: 25, SigmaC: 8, ExposedValue: 900},
	})
}

func TestNewSortsAndIndexes(t *testing.T) {
	tbl := sampleTable()
	if tbl.Len() != 3 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	for i := 1; i < tbl.Len(); i++ {
		if tbl.Records[i-1].EventID >= tbl.Records[i].EventID {
			t.Fatal("records not sorted")
		}
	}
	r, ok := tbl.Lookup(3)
	if !ok || r.MeanLoss != 100 {
		t.Fatalf("Lookup(3) = %+v, %v", r, ok)
	}
	if _, ok := tbl.Lookup(4); ok {
		t.Fatal("Lookup of absent event should fail")
	}
}

func TestNewCoalescesDuplicates(t *testing.T) {
	tbl := New(1, []Record{
		{EventID: 5, MeanLoss: 10, SigmaI: 3, SigmaC: 1, ExposedValue: 100},
		{EventID: 5, MeanLoss: 20, SigmaI: 4, SigmaC: 2, ExposedValue: 200},
	})
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tbl.Len())
	}
	r := tbl.Records[0]
	if r.MeanLoss != 30 || r.ExposedValue != 300 || r.SigmaC != 3 {
		t.Fatalf("coalesced record %+v", r)
	}
	if math.Abs(r.SigmaI-5) > 1e-12 { // sqrt(9+16)
		t.Fatalf("SigmaI = %v, want 5", r.SigmaI)
	}
}

func TestExpectedLoss(t *testing.T) {
	if got := sampleTable().ExpectedLoss(); got != 225 {
		t.Fatalf("ExpectedLoss = %v", got)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	tbl := sampleTable()
	var buf bytes.Buffer
	n, err := tbl.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != tbl.SizeBytes() {
		t.Fatalf("WriteTo wrote %d bytes, SizeBytes says %d", n, tbl.SizeBytes())
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ContractID != tbl.ContractID || got.Len() != tbl.Len() {
		t.Fatal("header mismatch")
	}
	for i := range tbl.Records {
		if got.Records[i] != tbl.Records[i] {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got.Records[i], tbl.Records[i])
		}
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(raw []uint32, cid uint32) bool {
		recs := make([]Record, 0, len(raw))
		for i, v := range raw {
			recs = append(recs, Record{
				EventID:      uint32(i) + 1,
				MeanLoss:     float64(v) / 7,
				SigmaI:       float64(v % 1000),
				SigmaC:       float64(v % 333),
				ExposedValue: float64(v) + 1,
			})
		}
		tbl := New(cid, recs)
		var buf bytes.Buffer
		if _, err := tbl.WriteTo(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.Len() != tbl.Len() {
			return false
		}
		for i := range tbl.Records {
			if got.Records[i] != tbl.Records[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("XXXX????"))); err == nil {
		t.Fatal("bad magic should error")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input should error")
	}
	// Truncated records.
	tbl := sampleTable()
	var buf bytes.Buffer
	if _, err := tbl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated table should error")
	}
	// Absurd count header.
	hdr := make([]byte, 12)
	copy(hdr, "ELT1")
	hdr[8], hdr[9], hdr[10], hdr[11] = 0xff, 0xff, 0xff, 0xff
	if _, err := Read(bytes.NewReader(hdr)); err == nil {
		t.Fatal("absurd count should error")
	}
}

// Read refuses a record with a NaN or infinite moment, and a table whose
// finite duplicates coalesce into one, with ErrBadFormat.
func TestReadRefusesNonFiniteMoments(t *testing.T) {
	bad := []Record{
		{EventID: 4, MeanLoss: math.NaN(), ExposedValue: 10},
		{EventID: 4, MeanLoss: 1, SigmaI: math.Inf(1), ExposedValue: 10},
		{EventID: 4, MeanLoss: 1, SigmaC: math.Inf(-1), ExposedValue: 10},
		{EventID: 4, MeanLoss: 1, ExposedValue: math.Inf(1)},
	}
	for _, r := range bad {
		tbl := &Table{ContractID: 1, Records: []Record{{EventID: 1, MeanLoss: 1, ExposedValue: 2}, r}}
		var buf bytes.Buffer
		if _, err := tbl.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(&buf); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("%+v: err %v, want ErrBadFormat", r, err)
		}
	}
	// Unsorted on the wire, so Read coalesces the two event-5 records,
	// whose means sum past MaxFloat64.
	tbl := &Table{ContractID: 1, Records: []Record{
		{EventID: 5, MeanLoss: math.MaxFloat64, ExposedValue: math.MaxFloat64},
		{EventID: 1, MeanLoss: 1, ExposedValue: 2},
		{EventID: 5, MeanLoss: math.MaxFloat64, ExposedValue: math.MaxFloat64},
	}}
	var buf bytes.Buffer
	if _, err := tbl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("overflowing duplicates: err %v, want ErrBadFormat", err)
	}
}

func TestSampleLossMoments(t *testing.T) {
	r := Record{EventID: 1, MeanLoss: 1000, SigmaI: 200, SigmaC: 100, ExposedValue: 10_000}
	st := rng.New(99)
	const n = 300000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		l := SampleLoss(st, r)
		if l < 0 || l > r.ExposedValue {
			t.Fatalf("loss %v outside [0, %v]", l, r.ExposedValue)
		}
		sum += l
		sumSq += l * l
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-1000)/1000 > 0.02 {
		t.Errorf("sample mean = %v, want 1000", mean)
	}
	if math.Abs(sd-300)/300 > 0.05 {
		t.Errorf("sample sd = %v, want 300", sd)
	}
}

func TestSampleLossEdgeCases(t *testing.T) {
	st := rng.New(1)
	if SampleLoss(st, Record{MeanLoss: 0, ExposedValue: 100}) != 0 {
		t.Error("zero mean should sample 0")
	}
	if SampleLoss(st, Record{MeanLoss: 10, ExposedValue: 0}) != 0 {
		t.Error("zero exposure should sample 0")
	}
	if got := SampleLoss(st, Record{MeanLoss: 10, SigmaI: 0, SigmaC: 0, ExposedValue: 100}); got != 10 {
		t.Errorf("zero sigma should return mean, got %v", got)
	}
	// Mean at/above exposed value saturates.
	if got := SampleLoss(st, Record{MeanLoss: 100, SigmaI: 5, ExposedValue: 100}); got != 100 {
		t.Errorf("saturated record should return exposure, got %v", got)
	}
}

func TestSigma(t *testing.T) {
	r := Record{SigmaI: 3, SigmaC: 4}
	if r.Sigma() != 7 {
		t.Fatalf("Sigma = %v, want 7", r.Sigma())
	}
}
