package metrics

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/mathx"
	"repro/internal/rng"
)

// selectColumn draws a NaN-free column of n losses in one of the shapes
// a YLT takes: "cat" (mostly +0 under a Pareto tail), "signed" (both
// signs, both zeros), "ties" (five values) and "inf" (a cat column with
// ±Inf).
func selectColumn(shape string, n int, st *rng.Stream) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch shape {
		case "cat", "inf":
			if st.Float64() < 0.4 {
				xs[i] = st.Pareto(1e5, 2.0)
			}
			if shape == "inf" && st.Float64() < 0.02 {
				xs[i] = math.Inf(1 - 2*st.Intn(2))
			}
		case "signed":
			xs[i] = (st.Float64() - 0.6) * 1e6
			if st.Float64() < 0.1 {
				xs[i] = math.Copysign(0, float64(st.Intn(2))-0.5)
			}
		case "ties":
			xs[i] = float64(st.Intn(5)) * 1e4
		}
	}
	return xs
}

// TestSelectRanksMatchesSort holds the multi-selection to an ascending
// sort, which shares none of its code: after selectRanks, every asked
// rank holds the sorted column's element there (equal as floats: -0 and
// +0 are tied, and no sort orders them).
func TestSelectRanksMatchesSort(t *testing.T) {
	st := rng.New(7)
	for _, shape := range []string{"cat", "signed", "ties", "inf"} {
		for _, n := range []int{1, 2, 12, 13, 100, 1001, 10_000} {
			for rep := 0; rep < 5; rep++ {
				xs := selectColumn(shape, n, st)
				want := slices.Clone(xs)
				slices.Sort(want)
				ks := make([]int, 1+st.Intn(min(n, 30)))
				for i := range ks {
					ks[i] = st.Intn(n)
				}
				if rep == 0 {
					ks = append(ks, 0, n-1) // the endpoints too
				}
				slices.Sort(ks)
				ks = slices.Compact(ks)
				got := slices.Clone(xs)
				selectRanks(got, 0, n, ks, 2*64)
				for _, k := range ks {
					if got[k] != want[k] {
						t.Fatalf("%s n=%d ranks %v: rank %d holds %v, sorted %v", shape, n, ks, k, got[k], want[k])
					}
				}
				// Depth 0 falls back to sorting the segment.
				got = slices.Clone(xs)
				selectRanks(got, 0, n, ks, 0)
				for _, k := range ks {
					if got[k] != want[k] {
						t.Fatalf("%s n=%d depth 0: rank %d holds %v, sorted %v", shape, n, k, got[k], want[k])
					}
				}
			}
		}
	}
}

// TestCurveMatchesSortedQuantiles reads every standard return period,
// both VaR levels and a sweep of others from one curve, in that order
// and again after, and holds each to mathx.QuantileSorted over a
// sort.Float64s copy, bit for bit, on the oracle's tables (NaNs
// included). The naive oracle reads its return-period rows from an
// EPCurve itself, so this is the check on those rows that does not
// share the curve's code. Endpoints follow the curve's own rule and are
// pinned in TestZeroSignAtEndpoints.
func TestCurveMatchesSortedQuantiles(t *testing.T) {
	levels := []float64{0.99, 0.995}
	for _, rp := range StandardReturnPeriods {
		levels = append(levels, exceedanceLevel(1/rp))
	}
	for q := 0.0125; q < 1; q += 0.0625 {
		levels = append(levels, q)
	}
	for _, shape := range []string{"cat", "enterprise", "ties", "odd"} {
		for _, n := range []int{2, 249, 1000, 10_007} {
			for seed := uint64(1); seed <= 3; seed++ {
				col := oracleTable(shape, n, false, seed).Agg
				sorted := slices.Clone(col)
				sort.Float64s(sorted)
				c, err := NewEPCurve(col)
				if err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < 2; pass++ {
					got := c.quantiles(levels...)
					for j, q := range levels {
						if _, _, ok := mathx.QuantileRank(n, q); !ok {
							continue
						}
						if want := mathx.QuantileSorted(sorted, q); !sameBits(got[j], want) {
							t.Fatalf("%s n=%d seed=%d pass %d: level %g = %v, sorted %v", shape, n, seed, pass, q, got[j], want)
						}
					}
				}
			}
		}
	}
}

// TestZeroSignAtEndpoints pins the one place the sign of a zero reaches
// a number: the endpoints of a curve. When both zeros tie for it, the
// minimum is -0 and the maximum +0, whichever order the trials come in
// and whether the column was handed in sorted or not.
func TestZeroSignAtEndpoints(t *testing.T) {
	neg, pos := math.Copysign(0, -1), 0.0
	for _, c := range []struct {
		col      []float64
		min, max float64
	}{
		{[]float64{pos, neg}, neg, pos},
		{[]float64{neg}, neg, neg},
		{[]float64{pos}, pos, pos},
		{[]float64{pos, neg, pos, 3, 7}, neg, 7},
		{[]float64{-4, pos, neg, pos}, -4, pos},
		{[]float64{math.NaN(), pos, neg}, math.NaN(), pos},
	} {
		n := len(c.col)
		for r := 0; r < n; r++ {
			col := append(slices.Clone(c.col[r:]), c.col[:r]...)
			curve, err := NewEPCurve(col)
			if err != nil {
				t.Fatal(err)
			}
			for name, pair := range map[string][2]float64{
				"LossAt(1)": {curve.LossAt(1), c.min},
				"LossAt(0)": {curve.LossAt(0), c.max},
				// 1 − 1/rp rounds to 1 and reads the last rank.
				"LossAtReturnPeriod(1e17)": {must(curve.LossAtReturnPeriod(1e17)), c.max},
			} {
				if !sameBits(pair[0], pair[1]) {
					t.Errorf("%v: %s = %v (sign %v), want %v", col, name, pair[0], math.Signbit(pair[0]), pair[1])
				}
			}
			if slices.ContainsFunc(col, math.IsNaN) {
				continue
			}
			slices.Sort(col)
			sortedCurve := &EPCurve{xs: col, sorted: true}
			if got := sortedCurve.LossAt(1); !sameBits(got, c.min) {
				t.Errorf("sorted %v: minimum %v, want %v", col, got, c.min)
			}
			if got := sortedCurve.LossAt(0); !sameBits(got, c.max) {
				t.Errorf("sorted %v: maximum %v, want %v", col, got, c.max)
			}
		}
	}
}

func must(x float64, err error) float64 {
	if err != nil {
		panic(err)
	}
	return x
}

// A NaN return period or level is an error, not an index: NaN slips
// past a `<= 1` guard, and int(NaN·(n−1)) indexes nowhere.
func TestNaNLevelIsRejected(t *testing.T) {
	tbl := buildYLT(1000)
	nan := math.NaN()
	v, err := NewView(tbl)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewEPCurve(tbl.Agg)
	if err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func() (float64, error){
		"PML":                        func() (float64, error) { return PML(tbl, nan) },
		"VaR":                        func() (float64, error) { return VaR(tbl.Agg, nan) },
		"TVaR":                       func() (float64, error) { return TVaR(tbl.Agg, nan) },
		"View.PML":                   func() (float64, error) { return v.PML(nan) },
		"View.TVaR":                  func() (float64, error) { return v.TVaR(nan) },
		"EPCurve.LossAtReturnPeriod": func() (float64, error) { return c.LossAtReturnPeriod(nan) },
	} {
		if got, err := call(); err == nil {
			t.Errorf("%s(NaN) = %v, want an error", name, got)
		}
	}
	if got := c.LossAt(nan); !math.IsNaN(got) {
		t.Errorf("LossAt(NaN) = %v, want NaN", got)
	}
}
