package dfa

import (
	"context"
	"fmt"
	"math"
	"slices"
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

// BenchmarkRankTransform times the argsort of a million catastrophe
// years alone, z-scores included.
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
					if _, _, err := rankTransform(context.Background(), tbl.agg, workers); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/trial")
			})
		}
	}
}

// BenchmarkRankRunSort is the measurement behind rankTransform's choice
// of sort (EXPERIMENTS.md, E9): one worker's run of a two-worker
// million-trial pass, sorted by slices.SortFunc as rankTransform does
// and by the candidate it was weighed against, an LSD radix.
func BenchmarkRankRunSort(b *testing.B) {
	const n = 500_000
	for _, tbl := range []struct {
		name string
		agg  []float64
	}{
		{"distinct", distinctTable(n, 3).Agg},
		{"tied", catTable(n, 3).Agg},
	} {
		for _, sorter := range []struct {
			name string
			sort func([]rankKey)
		}{
			{"sortfunc", func(run []rankKey) { slices.SortFunc(run, compareRankKeys) }},
			{"radix", radixSortRankKeys},
		} {
			b.Run(tbl.name+"/"+sorter.name, func(b *testing.B) {
				run := make([]rankKey, n)
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					fillRankKeys(run, tbl.agg)
					b.StartTimer()
					sorter.sort(run)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/trial")
			})
		}
	}
}

func fillRankKeys(run []rankKey, agg []float64) {
	for i, loss := range agg {
		run[i] = rankKey{loss, i}
	}
}

// radixSortRankKeys sorts one run of finite losses by eight stable
// byte-wide counting passes over the order-preserving bit pattern of
// each loss (sign bit flipped for positives, every bit for negatives,
// −0 folded onto +0), skipping a pass whose byte is the same in every
// key. The run arrives in trial order and every pass is stable, so ties
// stay in trial order.
func radixSortRankKeys(run []rankKey) {
	pattern := func(loss float64) uint64 {
		bits := math.Float64bits(loss + 0)
		if bits>>63 != 0 {
			return ^bits
		}
		return bits | 1<<63
	}
	var counts [8][256]int
	for _, key := range run {
		p := pattern(key.loss)
		for d := range counts {
			counts[d][byte(p>>(8*d))]++
		}
	}
	src, dst := run, make([]rankKey, len(run))
	for d := range counts {
		if slices.Contains(counts[d][:], len(run)) {
			continue
		}
		var offsets [256]int
		for v, sum := 0, 0; v < 256; v++ {
			offsets[v], sum = sum, sum+counts[d][v]
		}
		for _, key := range src {
			v := byte(pattern(key.loss) >> (8 * d))
			dst[offsets[v]] = key
			offsets[v]++
		}
		src, dst = dst, src
	}
	if &src[0] != &run[0] {
		copy(run, src)
	}
}

func TestRadixCandidateSortsAsSortFunc(t *testing.T) {
	for _, agg := range [][]float64{catTable(5003, 21).Agg, distinctTable(4099, 22).Agg, {-1, 0, math.Copysign(0, -1), 3, -1, 0}} {
		want, got := make([]rankKey, len(agg)), make([]rankKey, len(agg))
		fillRankKeys(want, agg)
		fillRankKeys(got, agg)
		slices.SortFunc(want, compareRankKeys)
		radixSortRankKeys(got)
		// −0 == +0, so comparing the keys compares the order, not the
		// zeros' signs.
		if !slices.Equal(got, want) {
			t.Fatal("the radix candidate orders a run differently from slices.SortFunc")
		}
	}
}

func BenchmarkSourceDraws(b *testing.B) {
	cat := catTable(1000, 4)
	for _, src := range StandardSources(cat.Mean()) {
		b.Run(src.Name(), func(b *testing.B) {
			st := newBenchStream()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += src.Loss(0.3+0.4*float64(i%2), st)
			}
			_ = sink
		})
	}
}
