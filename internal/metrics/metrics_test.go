package metrics

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ylt"
)

func TestEPCurveKnown(t *testing.T) {
	// 100 trials with losses 1..100: the 100-year loss is the max.
	losses := make([]float64, 100)
	for i := range losses {
		losses[i] = float64(i + 1)
	}
	c, err := NewEPCurve(losses)
	if err != nil {
		t.Fatal(err)
	}
	if c.Trials() != 100 {
		t.Fatalf("Trials = %d", c.Trials())
	}
	l100, err := c.LossAtReturnPeriod(100)
	if err != nil {
		t.Fatal(err)
	}
	// 1-1/100 quantile of 1..100 (type-7) = 99.01
	if math.Abs(l100-99.01) > 0.011 {
		t.Fatalf("100-year loss = %v", l100)
	}
	l2, err := c.LossAtReturnPeriod(2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l2-50.5) > 0.01 {
		t.Fatalf("2-year loss = %v, want ~50.5", l2)
	}
}

func TestEPCurveErrors(t *testing.T) {
	if _, err := NewEPCurve(nil); !errors.Is(err, ErrNoData) {
		t.Fatal("empty curve should error")
	}
	c, _ := NewEPCurve([]float64{1, 2, 3})
	if _, err := c.LossAtReturnPeriod(0.5); err == nil {
		t.Fatal("rp <= 1 should error")
	}
}

func TestVaRTVaR(t *testing.T) {
	losses := make([]float64, 1000)
	for i := range losses {
		losses[i] = float64(i)
	}
	v, err := VaR(losses, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-989.01) > 0.02 {
		t.Fatalf("VaR99 = %v", v)
	}
	tv, err := TVaR(losses, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	// Mean of 990..999 = 994.5 (losses >= 989.01)
	if math.Abs(tv-994.5) > 0.5 {
		t.Fatalf("TVaR99 = %v", tv)
	}
	if tv < v {
		t.Fatal("TVaR must be >= VaR")
	}
	if _, err := VaR(nil, 0.5); !errors.Is(err, ErrNoData) {
		t.Fatal("VaR of empty should error")
	}
	if _, err := TVaR(nil, 0.5); !errors.Is(err, ErrNoData) {
		t.Fatal("TVaR of empty should error")
	}
}

func TestTVaRGeqVaRProperty(t *testing.T) {
	f := func(raw []uint32, pRaw uint16) bool {
		if len(raw) == 0 {
			return true
		}
		losses := make([]float64, len(raw))
		for i, v := range raw {
			losses[i] = float64(v % 1_000_000)
		}
		p := float64(pRaw%999) / 1000
		v, err1 := VaR(losses, p)
		tv, err2 := TVaR(losses, p)
		return err1 == nil && err2 == nil && tv >= v-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// VaR reads its column in place and leaves it as it was: no reordering,
// no write.
func TestVaRDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	if _, err := VaR(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatalf("VaR mutated its input: %v", xs)
	}
}

// VaR does not decrease as the level grows, over columns of any finite
// values.
func TestVaRMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		qa := math.Abs(math.Mod(a, 1))
		qb := math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		va, _ := VaR(xs, qa)
		vb, _ := VaR(xs, qb)
		return va <= vb+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// A report reads its table in place: the view and its Summary over a
// million-trial table allocate a few kilobytes (the summary, the level
// and rank lists, the kept order statistics), not the 16 MB two column
// copies took. The selection's scratch is pooled, and warmed here.
func TestSummaryAllocatesNoColumn(t *testing.T) {
	tbl := buildYLT(1_000_000)
	if _, err := Summarize(tbl); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v, err := NewView(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Summary(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("NewView + Summary over %d trials allocated %d bytes, want under 1 MB", tbl.NumTrials(), got)
	}
}

func TestTVaRDegenerate(t *testing.T) {
	// All losses equal: TVaR == VaR == the value.
	losses := []float64{7, 7, 7, 7}
	tv, err := TVaR(losses, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if tv != 7 {
		t.Fatalf("TVaR = %v", tv)
	}
}

func buildYLT(n int) *ylt.Table {
	t := ylt.New("test", n)
	s := uint64(11)
	for i := range t.Agg {
		s = s*6364136223846793005 + 1442695040888963407
		t.Agg[i] = float64(s % 1_000_000)
		t.OccMax[i] = t.Agg[i] * 0.6
	}
	return t
}

func TestSummarize(t *testing.T) {
	tbl := buildYLT(10_000)
	s, err := Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if s.Trials != 10_000 || s.Name != "test" {
		t.Fatal("header wrong")
	}
	if s.TVaR99 < s.VaR99 || s.TVaR995 < s.VaR995 {
		t.Fatal("tail metrics inverted")
	}
	if s.VaR995 < s.VaR99 {
		t.Fatal("VaR should grow with confidence")
	}
	// 10k trials resolve up to RP 1000: all 9 standard rows.
	if len(s.ReturnRows) != len(StandardReturnPeriods) {
		t.Fatalf("return rows = %d", len(s.ReturnRows))
	}
	prev := ReturnRow{}
	for _, r := range s.ReturnRows {
		if r.AEP < prev.AEP || r.OEP < prev.OEP {
			t.Fatal("EP losses must grow with return period")
		}
		if r.OEP > r.AEP+1e-9 {
			t.Fatal("OEP cannot exceed AEP (occ max <= annual agg)")
		}
		prev = r
	}
	if !strings.Contains(s.String(), "AAL") || !strings.Contains(s.String(), "RP") {
		t.Fatal("String() should render report")
	}
}

func TestSummarizeSkipsUnresolvedTails(t *testing.T) {
	tbl := buildYLT(100)
	s, err := Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range s.ReturnRows {
		if r.ReturnPeriod > 100 {
			t.Fatalf("RP %v not resolvable with 100 trials", r.ReturnPeriod)
		}
	}
}

func TestSummarizeAggOnly(t *testing.T) {
	tbl := ylt.NewAggOnly("inv", 1000)
	for i := range tbl.Agg {
		tbl.Agg[i] = float64(i)
	}
	s, err := Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range s.ReturnRows {
		if r.OEP != 0 {
			t.Fatal("agg-only table should have zero OEP columns")
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(ylt.New("e", 0)); !errors.Is(err, ErrNoData) {
		t.Fatal("empty YLT should error")
	}
}

func TestPML(t *testing.T) {
	tbl := buildYLT(5000)
	p, err := PML(tbl, 250)
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 {
		t.Fatal("PML should be positive")
	}
	agg := ylt.NewAggOnly("x", 10)
	if _, err := PML(agg, 100); !errors.Is(err, ErrNoOccurrence) {
		t.Fatalf("err = %v, want ErrNoOccurrence", err)
	}
	empty := &ylt.Table{Name: "z", Agg: []float64{}, OccMax: []float64{}}
	if _, err := PML(empty, 100); err == nil {
		t.Fatal("empty occurrence data should error")
	}
}

// NewViewSorted shares an occurrence curve only with a view of a table
// that holds the same OccMax slice; it must refuse any other, and with
// an honest one report exactly what NewView reports.
func TestNewViewSorted(t *testing.T) {
	cat := buildYLT(5000)
	// An enterprise-shaped table: another aggregate column, the
	// catastrophe table's occurrence column itself.
	ent := ylt.NewAggOnly("ent", cat.NumTrials())
	for i, v := range cat.Agg {
		ent.Agg[i] = 3*v - 1e5*float64(i%7)
	}
	ent.OccMax = cat.OccMax

	catView, err := NewView(cat)
	if err != nil {
		t.Fatal(err)
	}
	entView, err := NewViewSorted(ent, catView)
	if err != nil {
		t.Fatal(err)
	}
	if entView.oep != catView.oep {
		t.Fatal("the enterprise view built its own occurrence curve")
	}
	for _, c := range []struct {
		view *View
		tbl  *ylt.Table
	}{{catView, cat}, {entView, ent}} {
		want, err := NewView(c.tbl)
		if err != nil {
			t.Fatal(err)
		}
		gotSum, err1 := c.view.Summary()
		wantSum, err2 := want.Summary()
		if err1 != nil || err2 != nil || !reflect.DeepEqual(gotSum, wantSum) {
			t.Fatalf("%s: Summary %+v (%v), NewView's %+v (%v)", c.tbl.Name, gotSum, err1, wantSum, err2)
		}
		gotPML, err1 := c.view.PML(250)
		wantPML, err2 := want.PML(250)
		if err1 != nil || err2 != nil || gotPML != wantPML {
			t.Fatalf("%s: PML %v (%v), NewView's %v (%v)", c.tbl.Name, gotPML, err1, wantPML, err2)
		}
	}

	equalCopy := ylt.New("copy", cat.NumTrials())
	copy(equalCopy.OccMax, cat.OccMax)
	otherOcc := ylt.New("other", cat.NumTrials())
	copy(otherOcc.OccMax, cat.OccMax)
	otherOcc.OccMax[4999]++
	shorter := ylt.NewAggOnly("shorter", 4999)
	shorter.OccMax = cat.OccMax[:4999]
	aggOnlyView, err := NewView(ylt.NewAggOnly("agg", cat.NumTrials()))
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range map[string]func() (*View, error){
		"an equal copy":     func() (*View, error) { return NewViewSorted(equalCopy, catView) },
		"different OccMax":  func() (*View, error) { return NewViewSorted(otherOcc, catView) },
		"shorter OccMax":    func() (*View, error) { return NewViewSorted(shorter, catView) },
		"lender has no occ": func() (*View, error) { return NewViewSorted(ent, aggOnlyView) },
	} {
		if v, err := build(); err == nil {
			t.Errorf("%s: accepted (%v)", name, v != nil)
		}
	}
	if _, err := NewViewSorted(ylt.New("e", 0), catView); !errors.Is(err, ErrNoData) {
		t.Errorf("empty table: %v, want ErrNoData", err)
	}
	// An aggregate-only table borrows nothing and needs nothing.
	if v, err := NewViewSorted(ylt.NewAggOnly("agg", cat.NumTrials()), catView); err != nil || v.oep != nil {
		t.Errorf("aggregate-only table with a lender: %v", err)
	}
}
