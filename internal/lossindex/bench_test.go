package lossindex

import (
	"context"
	"sync"
	"testing"

	"repro/internal/synth"
)

var (
	benchOnce sync.Once
	benchScen *synth.Scenario
	benchErr  error
)

func benchScenario(b *testing.B) *synth.Scenario {
	b.Helper()
	benchOnce.Do(func() {
		benchScen, benchErr = synth.Build(context.Background(), synth.Params{
			Seed: 42, NumEvents: 10_000, NumContracts: 16,
			LocationsPerContract: 250, NumTrials: 10_000,
			MeanEventsPerYear: 10, TwoLayers: true,
		})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchScen
}

func BenchmarkBuild(b *testing.B) {
	s := benchScenario(b)
	b.ResetTimer()
	var ix *Index
	for i := 0; i < b.N; i++ {
		var err error
		ix, err = Build(s.ELTs, s.Portfolio)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ix.NumEntries()), "entries")
	b.SetBytes(ix.SizeBytes())
}

// BenchmarkProbeIndexed vs BenchmarkProbeBinarySearch measure the two
// access paths of the hot trial loop over the same occurrence stream:
// one dense row probe per occurrence against one binary search per
// (occurrence × contract).
func BenchmarkProbeIndexed(b *testing.B) {
	s := benchScenario(b)
	ix, err := Build(s.ELTs, s.Portfolio)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, event := range s.YELT.Occs {
			for _, e := range ix.EntriesFor(event) {
				sink += e.Rec.MeanLoss
			}
		}
	}
	_ = sink
	b.ReportMetric(float64(len(s.YELT.Occs))*float64(b.N)/b.Elapsed().Seconds(), "occs/s")
}

func BenchmarkProbeBinarySearch(b *testing.B) {
	s := benchScenario(b)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, event := range s.YELT.Occs {
			for _, c := range s.Portfolio.Contracts {
				if rec, ok := s.ELTs[c.ELTIndex].Lookup(event); ok && rec.MeanLoss > 0 {
					sink += rec.MeanLoss
				}
			}
		}
	}
	_ = sink
	b.ReportMetric(float64(len(s.YELT.Occs))*float64(b.N)/b.Elapsed().Seconds(), "occs/s")
}
