package metrics

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/ylt"
)

// goldenSummaryDigest was computed at the commit before Summarize was
// rebuilt over the one-sort View (4d1c648), so it pins every summary
// number across commits, not only across implementations inside one
// binary.
const goldenSummaryDigest = 0xf7df7605de18056a

// goldenTable is a small fixed-seed YLT in the shape the pipeline
// produces: most years lossless, a Pareto tail, occurrence maxima below
// the annual totals.
func goldenTable(occ bool) *ylt.Table {
	const n = 3001
	t := ylt.NewAggOnly("golden", n)
	if occ {
		t = ylt.New("golden", n)
	}
	st := rng.New(20260930)
	for i := range t.Agg {
		if st.Float64() < 0.4 {
			t.Agg[i] = st.Pareto(1e5, 2.0)
			if occ {
				t.OccMax[i] = t.Agg[i] * (0.5 + 0.5*st.Float64())
			}
		}
	}
	return t
}

// digestSummaries is FNV-1a over the float bits of every number
// Summarize reports, then of PML(250) when the table has occurrence
// detail.
func digestSummaries(t *testing.T, tables ...*ylt.Table) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, tbl := range tables {
		s, err := Summarize(tbl)
		if err != nil {
			t.Fatal(err)
		}
		put(uint64(s.Trials))
		for _, f := range []float64{s.AAL, s.AggStdDev, s.VaR99, s.TVaR99, s.VaR995, s.TVaR995} {
			put(math.Float64bits(f))
		}
		put(uint64(len(s.ReturnRows)))
		for _, r := range s.ReturnRows {
			put(math.Float64bits(r.ReturnPeriod))
			put(math.Float64bits(r.OEP))
			put(math.Float64bits(r.AEP))
		}
		if tbl.HasOccurrence() {
			pml, err := PML(tbl, 250)
			if err != nil {
				t.Fatal(err)
			}
			put(math.Float64bits(pml))
		}
	}
	return h.Sum64()
}

func TestGoldenSummaryDigest(t *testing.T) {
	with, without := goldenTable(true), goldenTable(false)
	if s, err := Summarize(with); err != nil || s.TVaR995 <= s.VaR995 || len(s.ReturnRows) != len(StandardReturnPeriods) {
		t.Fatalf("golden table is degenerate; the digest would pin nothing: %+v, %v", s, err)
	}
	if got := digestSummaries(t, with, without); got != goldenSummaryDigest {
		t.Fatalf("summary numbers changed: digest %#x, want %#x", got, uint64(goldenSummaryDigest))
	}
}
