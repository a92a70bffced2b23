package layers

import (
	"math"
	"testing"
	"testing/quick"
)

// randomLayer maps four uniform draws to a layer covering the edge
// encodings: zero retentions, zero (unlimited) limits, zero
// (normalized) shares, and boundary-sized terms.
func randomLayer(u [4]float64) Layer {
	l := Layer{
		OccRetention: math.Trunc(u[0]*20) * 50,
		AggRetention: math.Trunc(u[1]*20) * 75,
		Share:        math.Trunc(u[3]*5) / 4, // 0, 0.25, ..., 1
	}
	if u[0] > 0.3 {
		l.OccLimit = 100 + u[1]*900
	}
	if u[2] > 0.3 {
		l.AggLimit = 200 + u[2]*1800
	}
	return l
}

// The flattening round-trip property: for random layer terms —
// including the 0-means-unlimited and 0-means-full-share sentinel
// encodings — the SoA columns must reproduce Layer.ApplyOccurrence
// and Layer.ApplyAggregate bit-for-bit on random losses, including
// losses pinned exactly at the retention and limit boundaries. A loss
// at or below a contract's MinOccRet recovers 0 through its layers.
func TestFlatTermsRoundTripProperty(t *testing.T) {
	prop := func(u1, u2, u3, u4, lossSeed float64) bool {
		u := [4]float64{frac(u1), frac(u2), frac(u3), frac(u4)}
		l1, l2 := randomLayer(u), randomLayer([4]float64{u[1], u[2], u[3], u[0]})
		pf := &Portfolio{Contracts: []Contract{
			{ID: 1, Layers: []Layer{l1, l2}},
			{ID: 2, Layers: []Layer{l2}},
		}}
		ft, err := FlattenTerms(pf)
		if err != nil {
			return false
		}
		if len(ft.First)-1 != 2 || ft.NumLayers() != 3 {
			return false
		}
		losses := []float64{
			0,
			frac(lossSeed) * 3000,
			l1.OccRetention,               // exactly at the attachment: no recovery
			l1.OccRetention + l1.OccLimit, // exactly at exhaustion
			l1.OccRetention + l1.OccLimit + 1,
			l2.AggRetention,
			l2.AggRetention + l2.AggLimit + 0.5,
			math.MaxFloat64 / 4,
		}
		// A loss at or below a contract's MinOccRet recovers 0 through
		// every layer of the contract.
		for ci := 0; ci < len(ft.First)-1; ci++ {
			for fl := ft.First[ci]; fl < ft.First[ci+1]; fl++ {
				for _, loss := range []float64{0, ft.MinOccRet[ci] / 2, ft.MinOccRet[ci]} {
					if r := ft.ApplyOccurrence(fl, loss); r != 0 {
						t.Logf("contract %d slot %d: loss %g at or below MinOccRet recovers %g", ci, fl, loss, r)
						return false
					}
				}
			}
		}
		all := []Layer{l1, l2, l2}
		for fl, l := range all {
			for _, loss := range losses {
				if got, want := ft.ApplyOccurrence(int32(fl), loss), l.ApplyOccurrence(loss); got != want {
					t.Logf("slot %d occ(%g): flat %g, layer %g (%+v)", fl, loss, got, want, l)
					return false
				}
				if got, want := ft.ApplyAggregate(int32(fl), loss), l.ApplyAggregate(loss); got != want {
					t.Logf("slot %d agg(%g): flat %g, layer %g (%+v)", fl, loss, got, want, l)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func frac(x float64) float64 {
	f := math.Abs(x - math.Trunc(x))
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0.5
	}
	return f
}

// Contract frames must partition the flat slots in portfolio order.
func TestFlattenTermsFrames(t *testing.T) {
	pf := &Portfolio{Contracts: []Contract{
		{ID: 1, Layers: []Layer{{OccLimit: 10}, {OccLimit: 20}, {OccLimit: 30}}},
		{ID: 2, Layers: []Layer{{OccLimit: 40}}},
		{ID: 3, Layers: []Layer{{OccLimit: 50}, {OccLimit: 60}}},
	}}
	ft, err := FlattenTerms(pf)
	if err != nil {
		t.Fatal(err)
	}
	wantFirst := []int32{0, 3, 4, 6}
	for i, w := range wantFirst {
		if ft.First[i] != w {
			t.Fatalf("First = %v, want %v", ft.First, wantFirst)
		}
	}
	wantLim := []float64{10, 20, 30, 40, 50, 60}
	for fl, w := range wantLim {
		if ft.OccLim[fl] != w {
			t.Fatalf("OccLim[%d] = %g, want %g", fl, ft.OccLim[fl], w)
		}
		// Unset aggregate limits must flatten to the +Inf sentinel and
		// unset shares to 1.
		if !math.IsInf(ft.AggLim[fl], 1) {
			t.Fatalf("AggLim[%d] = %g, want +Inf", fl, ft.AggLim[fl])
		}
		if ft.Share[fl] != 1 {
			t.Fatalf("Share[%d] = %g, want 1", fl, ft.Share[fl])
		}
	}
	if ft.SizeBytes() <= 0 {
		t.Fatal("SizeBytes not positive")
	}
}

// MinOccRet is the lowest retention of each contract's layers, in any
// order, and NaN for a contract with a NaN retention, which Validate
// lets through and ApplyOccurrence turns into a NaN recovery: no loss
// may count as below it.
func TestMinOccRet(t *testing.T) {
	nan := math.NaN()
	rets := [][]float64{{5, nan}, {nan, 5}, {7, 5}, {5, 7, 6}, {9, 0, 3}, {4}}
	want := []float64{nan, nan, 5, 5, 0, 4}
	pf := &Portfolio{}
	for ci, rs := range rets {
		c := Contract{ID: uint32(ci)}
		for _, r := range rs {
			c.Layers = append(c.Layers, Layer{OccRetention: r})
		}
		pf.Contracts = append(pf.Contracts, c)
	}
	ft, err := FlattenTerms(pf)
	if err != nil {
		t.Fatal(err)
	}
	for ci, w := range want {
		if got := ft.MinOccRet[ci]; got != w && !(math.IsNaN(got) && math.IsNaN(w)) {
			t.Fatalf("MinOccRet = %v, want %v", ft.MinOccRet, want)
		}
	}
}

// FlattenTerms must reject what Portfolio.Validate rejects — it is the
// term-extraction path the engines trust.
func TestFlattenTermsValidates(t *testing.T) {
	if _, err := FlattenTerms(nil); err == nil {
		t.Fatal("nil portfolio accepted")
	}
	if _, err := FlattenTerms(&Portfolio{}); err == nil {
		t.Fatal("empty portfolio accepted")
	}
	bad := &Portfolio{Contracts: []Contract{{ID: 1, Layers: []Layer{{OccRetention: -1}}}}}
	if _, err := FlattenTerms(bad); err == nil {
		t.Fatal("negative retention accepted")
	}
}
