package metrics

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/mathx"
	"repro/internal/rng"
	"repro/internal/ylt"
)

// naiveVaR, naiveTVaR, naiveSummarize and naivePML are the bodies
// VaR, TVaR, Summarize and PML had before the one-sort View (4d1c648),
// kept only as the oracle: every quantile copies and sorts its column
// again (sort.Float64s, then mathx.QuantileSorted, as the deleted
// mathx.Quantile did), six sorts per summary and a seventh for the PML.
func naiveVaR(losses []float64, p float64) (float64, error) {
	if len(losses) == 0 {
		return 0, ErrNoData
	}
	sorted := slices.Clone(losses)
	sort.Float64s(sorted)
	return mathx.QuantileSorted(len(sorted), p, func(i int) float64 { return sorted[i] }), nil
}

func naiveTVaR(losses []float64, p float64) (float64, error) {
	v, err := naiveVaR(losses, p)
	if err != nil {
		return 0, err
	}
	var sum float64
	var n int
	for _, l := range losses {
		if l >= v {
			sum += l
			n++
		}
	}
	if n == 0 {
		return v, nil
	}
	return sum / float64(n), nil
}

func naiveSummarize(t *ylt.Table) (*Summary, error) {
	if t.NumTrials() == 0 {
		return nil, ErrNoData
	}
	aep, err := NewEPCurve(t.Agg)
	if err != nil {
		return nil, err
	}
	var oep *EPCurve
	if t.HasOccurrence() {
		if oep, err = NewEPCurve(t.OccMax); err != nil {
			return nil, err
		}
	}
	s := &Summary{Name: t.Name, Trials: t.NumTrials()}
	s.AAL, s.AggStdDev = mathx.MeanStdDev(t.Agg)
	if s.VaR99, err = naiveVaR(t.Agg, 0.99); err != nil {
		return nil, err
	}
	if s.TVaR99, err = naiveTVaR(t.Agg, 0.99); err != nil {
		return nil, err
	}
	if s.VaR995, err = naiveVaR(t.Agg, 0.995); err != nil {
		return nil, err
	}
	if s.TVaR995, err = naiveTVaR(t.Agg, 0.995); err != nil {
		return nil, err
	}
	for _, rp := range StandardReturnPeriods {
		if float64(s.Trials) < rp {
			continue // not enough trials to resolve this tail
		}
		row := ReturnRow{ReturnPeriod: rp}
		if row.AEP, err = aep.LossAtReturnPeriod(rp); err != nil {
			return nil, err
		}
		if oep != nil {
			if row.OEP, err = oep.LossAtReturnPeriod(rp); err != nil {
				return nil, err
			}
		}
		s.ReturnRows = append(s.ReturnRows, row)
	}
	return s, nil
}

func naivePML(t *ylt.Table, returnPeriod float64) (float64, error) {
	if !t.HasOccurrence() {
		return 0, ErrNoOccurrence
	}
	c, err := NewEPCurve(t.OccMax)
	if err != nil {
		return 0, err
	}
	return c.LossAtReturnPeriod(returnPeriod)
}

// sameBits reports a and b as floats of identical bit pattern (+0
// differs from -0), except that any NaN equals any NaN: which operand's
// payload an addition of two NaNs keeps depends on the order the
// compiler gave the operands at that inlined call site, not on the
// expression.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func summariesSameBits(a, b *Summary) bool {
	if a.Name != b.Name || a.Trials != b.Trials || len(a.ReturnRows) != len(b.ReturnRows) {
		return false
	}
	for i, ra := range a.ReturnRows {
		rb := b.ReturnRows[i]
		if !sameBits(ra.ReturnPeriod, rb.ReturnPeriod) || !sameBits(ra.OEP, rb.OEP) || !sameBits(ra.AEP, rb.AEP) {
			return false
		}
	}
	return sameBits(a.AAL, b.AAL) && sameBits(a.AggStdDev, b.AggStdDev) &&
		sameBits(a.VaR99, b.VaR99) && sameBits(a.TVaR99, b.TVaR99) &&
		sameBits(a.VaR995, b.VaR995) && sameBits(a.TVaR995, b.TVaR995)
}

// oracleTable draws a YLT of n trials in one of the shapes stage 2 and
// stage 3 hand to Summarize: "cat" is mostly lossless years under a
// Pareto tail (heavy ties at zero), "enterprise" is signed, "ties"
// takes every loss from five values, and "odd" salts a cat table with
// ±0, NaN and ±Inf.
func oracleTable(shape string, n int, occ bool, seed uint64) *ylt.Table {
	t := ylt.NewAggOnly(shape, n)
	if occ {
		t = ylt.New(shape, n)
	}
	st := rng.New(seed)
	odd := []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1)}
	for i := range t.Agg {
		var agg, share float64
		switch shape {
		case "cat", "odd":
			if st.Float64() < 0.4 {
				agg = st.Pareto(1e5, 2.0)
			}
			share = 0.5 + 0.5*st.Float64()
			if shape == "odd" && st.Float64() < 0.05 {
				agg = odd[st.Intn(len(odd))]
			}
		case "enterprise":
			agg = (st.Float64() - 0.6) * 1e6
			share = 1
		case "ties":
			agg = float64(st.Intn(5)) * 1e4
			share = 0.5
		}
		t.Agg[i] = agg
		if occ {
			t.OccMax[i] = agg * share
		}
	}
	return t
}

// TestViewMatchesNaiveOracle holds the one-sort View — and Summarize,
// PML, VaR and TVaR, which stand on the same code — to the six-sort
// bodies bit for bit, at the trial counts where a return-period row
// appears or a quantile index lands on the last element.
func TestViewMatchesNaiveOracle(t *testing.T) {
	for _, shape := range []string{"cat", "enterprise", "ties", "odd"} {
		for _, n := range []int{1, 2, 249, 250, 251, 999, 1000, 10_007} {
			for _, occ := range []bool{true, false} {
				for seed := uint64(1); seed <= 3; seed++ {
					tbl := oracleTable(shape, n, occ, seed)
					before := append([]float64(nil), tbl.Agg...)
					want, err := naiveSummarize(tbl)
					if err != nil {
						t.Fatal(err)
					}
					got, err := Summarize(tbl)
					if err != nil {
						t.Fatal(err)
					}
					if !summariesSameBits(got, want) {
						t.Fatalf("%s n=%d occ=%v seed=%d: Summarize\n got %+v\nwant %+v", shape, n, occ, seed, got, want)
					}
					v, err := NewView(tbl)
					if err != nil {
						t.Fatal(err)
					}
					if got, err = v.Summary(); err != nil || !summariesSameBits(got, want) {
						t.Fatalf("%s n=%d occ=%v seed=%d: View.Summary\n got %+v, %v\nwant %+v", shape, n, occ, seed, got, err, want)
					}
					for _, rp := range []float64{2, 250, 1e6} {
						wantPML, wantErr := naivePML(tbl, rp)
						for name, pml := range map[string]func() (float64, error){
							"PML":      func() (float64, error) { return PML(tbl, rp) },
							"View.PML": func() (float64, error) { return v.PML(rp) },
						} {
							if got, err := pml(); !sameBits(got, wantPML) || err != wantErr {
								t.Fatalf("%s n=%d occ=%v seed=%d: %s(%g) = %v, %v; want %v, %v", shape, n, occ, seed, name, rp, got, err, wantPML, wantErr)
							}
						}
					}
					for _, p := range []float64{0, 0.5, 0.99, 0.995, 1} {
						wantV, _ := naiveVaR(tbl.Agg, p)
						wantT, _ := naiveTVaR(tbl.Agg, p)
						gotV, errV := VaR(tbl.Agg, p)
						gotT, errT := TVaR(tbl.Agg, p)
						if errV != nil || errT != nil || !sameBits(gotV, wantV) || !sameBits(gotT, wantT) {
							t.Fatalf("%s n=%d seed=%d p=%g: VaR %v (%v) want %v; TVaR %v (%v) want %v", shape, n, seed, p, gotV, errV, wantV, gotT, errT, wantT)
						}
					}
					for i := range before {
						if !sameBits(before[i], tbl.Agg[i]) {
							t.Fatalf("%s n=%d: the view reordered the table it was built from (trial %d)", shape, n, i)
						}
					}
				}
			}
		}
	}
}

// An empty table has no view, and a view without occurrence detail has
// no PML — the same errors Summarize and PML always returned.
func TestViewErrors(t *testing.T) {
	if _, err := NewView(ylt.New("empty", 0)); err != ErrNoData {
		t.Fatalf("empty table: %v, want ErrNoData", err)
	}
	v, err := NewView(ylt.NewAggOnly("agg", 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.PML(250); err != ErrNoOccurrence {
		t.Fatalf("agg-only PML: %v, want ErrNoOccurrence", err)
	}
	if v, err = NewView(ylt.New("occ", 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := v.PML(1); err == nil {
		t.Fatal("return period 1 should error")
	}
}
