package metrics

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/ylt"
)

func benchLosses(n int) []float64 {
	st := rng.New(1)
	xs := make([]float64, n)
	for i := range xs {
		if st.Float64() < 0.4 {
			xs[i] = st.Pareto(1e5, 2.0)
		}
	}
	return xs
}

func BenchmarkEPCurveBuild(b *testing.B) {
	losses := benchLosses(1_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewEPCurve(losses); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTVaR(b *testing.B) {
	losses := benchLosses(1_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TVaR(losses, 0.99); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSummarize(b *testing.B) {
	t := ylt.New("bench", 500_000)
	st := rng.New(2)
	for i := range t.Agg {
		if st.Float64() < 0.4 {
			t.Agg[i] = st.Pareto(1e5, 2.0)
			t.OccMax[i] = t.Agg[i] * 0.7
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Summarize(t); err != nil {
			b.Fatal(err)
		}
	}
}
