package mapreduce

import (
	"context"
	"fmt"
	"testing"
	"time"
)

func BenchmarkRunSumJob(b *testing.B) {
	const itemsPerSplit = 100_000
	splits := seq(16)
	mapf := func(_ context.Context, split int) ([]float64, error) {
		out := make([]float64, 1024)
		for i := 0; i < itemsPerSplit; i++ {
			out[i%1024] += float64(i)
		}
		return out, nil
	}
	for _, mappers := range []int{1, 8} {
		b.Run(fmt.Sprintf("m%d", mappers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sums := make([][]float64, len(splits))
				commit := func(split int, r []float64, _ bool, _ time.Duration) { sums[split] = r }
				if err := Run(context.Background(), splits, mapf, commit, Config{Mappers: mappers}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(splits)*itemsPerSplit)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}
