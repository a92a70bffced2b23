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

// BenchmarkEPCurveBuild builds a curve over 1 000 000 losses and reads
// one return period from it: the copy and the selection of two ranks.
func BenchmarkEPCurveBuild(b *testing.B) {
	losses := benchLosses(1_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := NewEPCurve(losses)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.LossAtReturnPeriod(250); err != nil {
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

// BenchmarkQuoteView is a quote's post-simulation step over a 10 000
// trial table: a view, TVaR99 and PML250, no Summary.
func BenchmarkQuoteView(b *testing.B) {
	t := ylt.New("quote", 10_000)
	st := rng.New(3)
	for i := range t.Agg {
		if st.Float64() < 0.4 {
			t.Agg[i] = st.Pareto(1e5, 2.0)
			t.OccMax[i] = t.Agg[i] * 0.7
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := NewView(t)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := v.TVaR(0.99); err != nil {
			b.Fatal(err)
		}
		if _, err := v.PML(250); err != nil {
			b.Fatal(err)
		}
	}
}
