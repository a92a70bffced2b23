package elt

import (
	"math"
	"testing"

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
	for _, tb := range []*Table{New(1, nil), tbl} {
		if got, want := tb.SizeBytes(), int64(12+36*tb.Len()); got != want {
			t.Fatalf("SizeBytes of a %d-record table = %d, want 12 + 36·%d = %d", tb.Len(), got, tb.Len(), want)
		}
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
