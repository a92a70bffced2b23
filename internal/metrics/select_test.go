package metrics

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/mathx"
	"repro/internal/rng"
	"repro/internal/ylt"
)

// sortQuantiles is the reference the selection is held to, sharing no
// code with it: sort.Float64s on a copy of the column, then
// mathx.QuantileSorted over the sorted copy. sort.Float64s leaves -0
// and +0 in any order, so at an endpoint a zero takes the curve's rule
// (the builtin min and max: the minimum is -0 when the column holds a
// -0, the maximum +0 when it holds a +0); between two ranks the sign of
// a zero reaches no bit of the result.
func sortQuantiles(col, qs []float64) []float64 {
	sorted := slices.Clone(col)
	sort.Float64s(sorted)
	n := len(sorted)
	hasZero := func(sign bool) bool {
		return slices.ContainsFunc(col, func(x float64) bool { return x == 0 && math.Signbit(x) == sign })
	}
	at := func(i int) float64 {
		v := sorted[i]
		switch {
		case v != 0:
		case i == 0 && hasZero(true):
			v = math.Copysign(0, -1)
		case i == n-1 && hasZero(false):
			v = 0
		}
		return v
	}
	out := make([]float64, len(qs))
	for j, q := range qs {
		out[j] = mathx.QuantileSorted(n, q, at)
	}
	return out
}

// summaryLevels are the quantile levels a Summary reads: both VaRs and
// every standard return period.
func summaryLevels() []float64 {
	levels := []float64{0.99, 0.995}
	for _, rp := range StandardReturnPeriods {
		levels = append(levels, exceedanceLevel(1/rp))
	}
	return levels
}

// checkOrderStats holds a curve over col to sortQuantiles at levels, bit
// for bit, twice (the second time from the order statistics the curve
// kept), and checks that the column is untouched.
func checkOrderStats(t *testing.T, name string, col, levels []float64) {
	t.Helper()
	before := slices.Clone(col)
	want := sortQuantiles(col, levels)
	c, err := NewEPCurve(col)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		got := c.quantiles(levels...)
		for j, q := range levels {
			if !sameBits(got[j], want[j]) {
				t.Fatalf("%s (n=%d), pass %d: level %v = %v (%#x), sort.Float64s + QuantileSorted give %v (%#x)",
					name, len(col), pass, q, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
			}
		}
	}
	for i := range col {
		if math.Float64bits(col[i]) != math.Float64bits(before[i]) {
			t.Fatalf("%s: the curve wrote its column at trial %d", name, i)
		}
	}
}

// TestOrderStatsMatchSort holds EPCurve.quantiles — the in-place radix
// selection — to sortQuantiles over columns chosen to reach each of its
// paths: NaNs (the key 0), both zeros, ±Inf and subnormals, all-equal
// groups resolved without gathering, keys that agree in all but their
// last bits (a group split digit after digit, and the last digit of a
// short column overlapping the one above), n around the gather limit,
// more asked ranks than one batch holds, and a million-trial lognormal
// column under the 2¹⁶-bucket root.
func TestOrderStatsMatchSort(t *testing.T) {
	st := rng.New(11)
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	tiny := math.SmallestNonzeroFloat64
	levels := append([]float64{0, 1, nan, -0.5, 1.5, 0.5}, summaryLevels()...)
	random := func(k int) []float64 {
		qs := make([]float64, k)
		for i := range qs {
			qs[i] = st.Float64()
		}
		return qs
	}
	draw := func(n int, f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	pick := func(vals ...float64) func(int) float64 {
		return func(int) float64 { return vals[st.Intn(len(vals))] }
	}
	cat := func(i int) float64 {
		if st.Float64() < 0.3 {
			return st.Pareto(1e5, 2.0)
		}
		return 0
	}
	cases := []struct {
		name string
		col  []float64
	}{
		{"n=1", []float64{3.5}},
		{"n=1 NaN", []float64{nan}},
		{"n=1 -0", []float64{negZero}},
		{"n=2", []float64{2, -1}},
		{"n=2 ±0", []float64{0, negZero}},
		{"n=3", []float64{7, nan, -2}},
		{"n=3 ±Inf", []float64{inf, -inf, 1}},
		{"all NaN", draw(700, func(int) float64 { return nan })},
		{"NaNs", draw(5000, func(i int) float64 {
			if i%7 == 0 {
				return nan
			}
			return cat(i)
		})},
		{"±0 mixes", draw(3001, pick(0, negZero, 0, negZero, -1, 1))},
		{"±Inf", draw(2000, pick(inf, -inf, 0, 5, -5, 1e300))},
		{"subnormals", draw(4000, pick(tiny, -tiny, 2*tiny, 0x1p-1022, 0x1p-1022-tiny, negZero, 0, 3*tiny))},
		{"all equal", draw(100_000, func(int) float64 { return 250_000 })},
		{"ties at 0 and a limit", draw(200_000, func(i int) float64 {
			switch u := st.Float64(); {
			case u < 0.6:
				return 0
			case u < 0.9:
				return 5e6
			}
			return st.Float64() * 5e6
		})},
		{"last bits", draw(70_000, func(int) float64 { return 1 + float64(st.Intn(1<<20))*0x1p-52 })},
		{"last 4 bits, short", draw(3000, func(i int) float64 { return 1 + float64(i%16)*0x1p-52 })},
		{"last 10 bits, short", draw(3000, func(i int) float64 { return -1 - float64(i%700)*0x1p-52 })},
		{"signed", draw(10_007, func(int) float64 { return (st.Float64() - 0.6) * 1e6 })},
	}
	for _, n := range []int{255, 256, 257, 511, 512, 513, 1024} {
		cases = append(cases, struct {
			name string
			col  []float64
		}{fmt.Sprintf("cat n=%d", n), draw(n, cat)})
	}
	// The two zeros tie in the selection's order: one key, so that a
	// mass of both resolves as one all-equal bucket. No quantile shows
	// the difference (between two ranks the interpolation gives +0
	// whichever zero sits where), so it is checked on the key itself.
	if selectKey(negZero) != selectKey(0) {
		t.Fatalf("-0 has key %#x, +0 has %#x: the zeros do not tie", selectKey(negZero), selectKey(0))
	}
	for _, c := range cases {
		checkOrderStats(t, c.name, c.col, levels)
		checkOrderStats(t, c.name+", random levels", c.col, random(5))
	}
	// More ranks than one batch selects: 40 random levels read up to 80.
	checkOrderStats(t, "signed, 40 levels", cases[len(cases)-8].col, random(40))

	lognormal := draw(1_000_000, func(int) float64 { return st.LogNormal(13, 0.8) })
	checkOrderStats(t, "lognormal n=10⁶", lognormal, levels)
	checkOrderStats(t, "lognormal n=10⁶, random levels", lognormal, random(40))
}

// FuzzEPQuantiles holds the selection to sortQuantiles over columns of
// arbitrary bit patterns, NaN payloads and infinities included: eight
// bytes a value, the first eight the level.
func FuzzEPQuantiles(f *testing.F) {
	enc := func(vals ...float64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	negZero := math.Copysign(0, -1)
	f.Add(enc(0.5, 1, 2, 3))
	f.Add(enc(0, 0, negZero, -1, negZero, 5))
	f.Add(enc(1, negZero, 0, math.NaN()))
	f.Add(enc(0.99, math.Inf(-1), math.NaN(), math.Inf(1), math.SmallestNonzeroFloat64, -1e-310, 7, 7))
	f.Add(enc(math.NaN(), 2, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 16 {
			return
		}
		q := math.Float64frombits(binary.LittleEndian.Uint64(data))
		col := make([]float64, (len(data)-8)/8)
		for i := range col {
			col[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8+8*i:]))
		}
		checkOrderStats(t, "fuzz", col, append([]float64{q, 0, 1}, summaryLevels()...))
	})
}

// Views are read from several goroutines at once — quotes, cube cells,
// the two reports of a pass that share an occurrence curve — and share
// the selection's pooled scratch and each curve's kept order
// statistics. Every goroutine must read what a lone reader reads.
func TestCurveConcurrentQueries(t *testing.T) {
	tbl := oracleTable("cat", 70_000, true, 5)
	ent := ylt.NewAggOnly("enterprise", tbl.NumTrials())
	for i, v := range tbl.Agg {
		ent.Agg[i] = 2*v - 3e4
	}
	ent.OccMax = tbl.OccMax
	want := make([]*Summary, 2)
	for i, tb := range []*ylt.Table{tbl, ent} {
		s, err := Summarize(tb)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = s
	}
	catView, err := NewView(tbl)
	if err != nil {
		t.Fatal(err)
	}
	entView, err := NewViewSorted(ent, catView)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := []*View{catView, entView}[g%2]
			got, err := v.Summary()
			if err != nil || !summariesSameBits(got, want[g%2]) {
				t.Errorf("goroutine %d: Summary %+v (%v), want %+v", g, got, err, want[g%2])
			}
			if _, err := v.PML(250); err != nil {
				t.Errorf("goroutine %d: PML: %v", g, err)
			}
		}()
	}
	wg.Wait()
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
	levels := summaryLevels()
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
						if want := mathx.QuantileSorted(n, q, func(i int) float64 { return sorted[i] }); !sameBits(got[j], want) {
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
// minimum is -0 and the maximum +0, whichever order the trials come
// in.
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
