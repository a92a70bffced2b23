package elt

import (
	"testing"

	"repro/internal/rng"
)

func benchTable(n int) *Table {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			EventID:      uint32(i + 1),
			MeanLoss:     float64(i%1000) * 37,
			SigmaI:       float64(i % 500),
			SigmaC:       float64(i % 200),
			ExposedValue: float64(i%1000)*37*10 + 1,
		}
	}
	return New(1, recs)
}

func BenchmarkLookup(b *testing.B) {
	t := benchTable(100_000)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		if r, ok := t.Lookup(uint32(i%100_000) + 1); ok {
			sink += r.MeanLoss
		}
	}
	_ = sink
}

func BenchmarkSampleLoss(b *testing.B) {
	t := benchTable(1000)
	st := rng.New(1)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += SampleLoss(st, t.Records[i%1000])
	}
	_ = sink
}
