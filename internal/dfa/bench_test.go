package dfa

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/rng"
)

func newBenchStream() *rng.Stream { return rng.New(77) }

func BenchmarkIntegrate(b *testing.B) {
	cat := catTable(100_000, 3)
	for _, k := range []int{6, 24} {
		base := StandardSources(cat.Mean())
		sources := make([]Source, 0, k)
		for len(sources) < k {
			sources = append(sources, base[len(sources)%len(base)])
		}
		ig := &Integrator{Sources: sources}
		b.Run(fmt.Sprintf("sources=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ig.Run(context.Background(), cat, Config{Seed: 7, Rho: 0.2}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cat.NumTrials())*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
	// The 100 k table above is 70 % zero years, which a comparison sort
	// likes. This is the shape of a spill-expected pass: a million
	// distinct losses on two workers, per-source tables off.
	b.Run("trials=1M/distinct/workers=2", func(b *testing.B) {
		cat := distinctTable(1_000_000, 3)
		ig := &Integrator{Sources: StandardSources(cat.Mean())}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ig.Run(context.Background(), cat, Config{Seed: 7, Rho: 0.25, Workers: 2}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cat.NumTrials()), "ns/trial")
	})
}

// BenchmarkRankTransform times the ranking of a million catastrophe
// years alone: the index radix and the ranks.
func BenchmarkRankTransform(b *testing.B) {
	const n = 1_000_000
	for _, tbl := range []struct {
		name string
		agg  []float64
	}{
		{"distinct", distinctTable(n, 3).Agg},
		{"tied", catTable(n, 3).Agg},
	} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", tbl.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := rankTransform(context.Background(), tbl.agg, workers); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/trial")
			})
		}
	}
}

// BenchmarkSourceDraws is one trial's call of each standard source as Run
// makes it: the per-run form at a copula normal of ∓½.
func BenchmarkSourceDraws(b *testing.B) {
	cat := catTable(1000, 4)
	for _, src := range StandardSources(cat.Mean()) {
		b.Run(src.Name(), func(b *testing.B) {
			planned := planSource(src)
			st := newBenchStream()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += planned.loss(float64(i%2)-0.5, st)
			}
			_ = sink
		})
	}
}
