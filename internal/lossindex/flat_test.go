package lossindex

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/elt"
	"repro/internal/layers"
	"repro/internal/synth"
)

func flatScenario(t *testing.T) (*synth.Scenario, *Index, *Flat) {
	t.Helper()
	s, err := synth.Build(context.Background(), synth.Small(51))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(s.ELTs, s.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := Flatten(ix, s.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	return s, ix, fx
}

// Every per-entry column must agree with recomputing from the entry's
// record and its contract's layers — the pre-application is a cache,
// never a re-derivation.
func TestFlattenColumnsMatchEntries(t *testing.T) {
	s, ix, fx := flatScenario(t)
	if fx.NumEntries() != ix.NumEntries() || fx.NumContracts() != ix.NumContracts() {
		t.Fatalf("shape mismatch: %d/%d entries, %d/%d contracts",
			fx.NumEntries(), ix.NumEntries(), fx.NumContracts(), ix.NumContracts())
	}
	first := fx.Terms.First
	for ci := 0; ci+1 < len(first); ci++ {
		for fl := first[ci]; fl < first[ci+1]; fl++ {
			if fx.SlotContract[fl] != int32(ci) {
				t.Fatalf("slot %d: contract %d, want %d", fl, fx.SlotContract[fl], ci)
			}
		}
	}
	for row := int32(0); row < int32(ix.NumRows()); row++ {
		lo := ix.offsets[row]
		// The compacted frame is the row's non-zero ExpRec cells, in
		// entry-then-layer order, each with its flat slot.
		var wantRec []float64
		var wantDst []int32
		for k := lo; k < ix.offsets[row+1]; k++ {
			for e := fx.ExpOff[k]; e < fx.ExpOff[k+1]; e++ {
				if fx.ExpRec[e] != 0 {
					wantRec = append(wantRec, fx.ExpRec[e])
					wantDst = append(wantDst, fx.LayerOff[k]+e-fx.ExpOff[k])
				}
			}
		}
		clo, chi := fx.RowOff[row], fx.RowOff[row+1]
		if !slices.Equal(fx.RowRec[clo:chi], wantRec) || !slices.Equal(fx.RowDst[clo:chi], wantDst) {
			t.Fatalf("row %d: compacted frame %v at %v, want %v at %v", row, fx.RowRec[clo:chi], fx.RowDst[clo:chi], wantRec, wantDst)
		}
		// RowSum is each entry's recoveries summed in layer order, the
		// entry sums then summed in entry order, recomputed here from
		// the layers rather than read back from ExpRec.
		var rowSum float64
		for j, e := range ix.Entries(row) {
			k := lo + int32(j)
			if j > 0 && e.Contract <= fx.Contract[k-1] {
				t.Fatalf("row %d: contract %d after contract %d, want strictly ascending", row, e.Contract, fx.Contract[k-1])
			}
			if fx.Contract[k] != e.Contract {
				t.Fatalf("entry %d: contract %d, want %d", k, fx.Contract[k], e.Contract)
			}
			c := &s.Portfolio.Contracts[e.Contract]
			if fx.LayerOff[k] != fx.Terms.First[e.Contract] {
				t.Fatalf("entry %d: layer offset %d, want %d", k, fx.LayerOff[k], fx.Terms.First[e.Contract])
			}
			if n := fx.ExpOff[k+1] - fx.ExpOff[k]; int(n) != len(c.Layers) {
				t.Fatalf("entry %d: %d exp slots for %d layers", k, n, len(c.Layers))
			}
			var sum float64
			for li := range c.Layers {
				want := c.Layers[li].ApplyOccurrence(e.Rec.MeanLoss)
				if got := fx.ExpRec[fx.ExpOff[k]+int32(li)]; got != want {
					t.Fatalf("entry %d layer %d: pre-applied %g, want %g", k, li, got, want)
				}
				sum += want
			}
			rowSum += sum
			wc, wa, wb, ws := elt.SampleParams(e.Rec)
			if fx.SampleConst[k] != wc || fx.SampleA[k] != wa || fx.SampleB[k] != wb || fx.SampleScale[k] != ws {
				t.Fatalf("entry %d: sampling plan (%g,%g,%g,%g), want (%g,%g,%g,%g)",
					k, fx.SampleConst[k], fx.SampleA[k], fx.SampleB[k], fx.SampleScale[k], wc, wa, wb, ws)
			}
		}
		if math.Float64bits(fx.RowSum[row]) != math.Float64bits(rowSum) {
			t.Fatalf("row %d: occurrence sum %g, want %g", row, fx.RowSum[row], rowSum)
		}
	}
}

// Span must frame exactly the entries EntriesFor returns, and Cells
// its row's compacted frame, for both loss-bearing and loss-free event
// IDs (including beyond the indexed range).
func TestFlatSpanMatchesEntriesFor(t *testing.T) {
	_, ix, fx := flatScenario(t)
	maxID := uint32(len(ix.rowOf)) + 10
	for ev := uint32(0); ev < maxID; ev++ {
		lo, hi := fx.Span(ev)
		ents := ix.EntriesFor(ev)
		clo, chi, sum := fx.Cells(ev)
		if r := ix.Row(ev); r < 0 {
			if clo != 0 || chi != 0 || sum != 0 {
				t.Fatalf("event %d carries no loss but has cells [%d, %d), sum %g", ev, clo, chi, sum)
			}
		} else if clo != fx.RowOff[r] || chi != fx.RowOff[r+1] || sum != fx.RowSum[r] {
			t.Fatalf("event %d: cells [%d, %d) sum %g, want row %d's", ev, clo, chi, sum, r)
		}
		if int(hi-lo) != len(ents) {
			t.Fatalf("event %d: span %d entries, EntriesFor %d", ev, hi-lo, len(ents))
		}
		for j, e := range ents {
			if fx.Contract[lo+int32(j)] != e.Contract {
				t.Fatalf("event %d entry %d: contract mismatch", ev, j)
			}
		}
	}
}

func TestFlattenRejectsMismatchedPortfolio(t *testing.T) {
	s, ix, fx := flatScenario(t)
	if _, err := Flatten(ix, nil); err == nil {
		t.Fatal("nil portfolio accepted")
	}
	short := &layers.Portfolio{Contracts: s.Portfolio.Contracts[:1]}
	if _, err := Flatten(ix, short); err == nil {
		t.Fatal("contract-count mismatch accepted")
	}
	if _, err := Flatten(nil, s.Portfolio); err == nil {
		t.Fatal("nil index accepted")
	}
	if fx.SizeBytes() <= 0 {
		t.Fatal("SizeBytes not positive")
	}
	if fx.Index() != ix {
		t.Fatal("Index() does not return the source index")
	}
	if fx.NumLayers() != fx.Terms.NumLayers() {
		t.Fatal("NumLayers disagrees with Terms")
	}
}

// RowSum nests: each entry's frame is summed first, then the entry
// sums, as the kernels' running sums do. On this row the two orders
// differ in the last bit: (1e16 + 1) + (1 + 1) is 1e16 + 2, while one
// running sum over the four cells rounds back to 1e16.
func TestRowSumNestsEntrySums(t *testing.T) {
	elts := []*elt.Table{
		elt.New(1, []elt.Record{{EventID: 3, MeanLoss: 1e16, ExposedValue: 2e16}}),
		elt.New(2, []elt.Record{{EventID: 3, MeanLoss: 1, ExposedValue: 2}}),
	}
	pf := &layers.Portfolio{Contracts: []layers.Contract{
		{ID: 1, ELTIndex: 0, Layers: []layers.Layer{{}, {OccLimit: 1}}},
		{ID: 2, ELTIndex: 1, Layers: []layers.Layer{{}, {}}},
	}}
	ix, err := Build(elts, pf)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := Flatten(ix, pf)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, sum := fx.Cells(3); sum != 1e16+2 {
		t.Fatalf("row sum %v, want 1e16 + 2", sum)
	}
}
