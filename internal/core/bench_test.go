package core

import (
	"context"
	"testing"

	"repro/internal/dfa"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/ylt"
)

// BenchmarkPassReports times the tail of Pipeline.Run — the two reports
// of a million-trial pass — through Summarize of each table (four
// column copies and selections) and as Run builds them (ReportViews:
// the catastrophe aggregate column comes sorted from stage 3, the
// occurrence column is copied and selected in once for both reports).
func BenchmarkPassReports(b *testing.B) {
	const n = 1_000_000
	cat := ylt.New("portfolio", n)
	st := rng.New(3)
	for i := range cat.Agg {
		cat.Agg[i] = st.LogNormal(13, 0.8)
		cat.OccMax[i] = cat.Agg[i] * (0.5 + 0.5*st.Float64())
	}
	ig := &dfa.Integrator{Sources: dfa.StandardSources(cat.Mean())}
	res, err := ig.Run(context.Background(), cat, dfa.Config{Seed: 30, Rho: 0.25})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("summarize-twice", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := metrics.Summarize(res.Cat); err != nil {
				b.Fatal(err)
			}
			if _, err := metrics.Summarize(res.Enterprise); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("report-views", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			catView, entView, err := ReportViews(res)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := catView.Summary(); err != nil {
				b.Fatal(err)
			}
			if _, err := entView.Summary(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
