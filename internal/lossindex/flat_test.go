package lossindex

import (
	"context"
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
	for row := int32(0); row < int32(ix.NumRows()); row++ {
		lo := ix.offsets[row]
		for j, e := range ix.Entries(row) {
			k := lo + int32(j)
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
			if fx.ExpSum[k] != sum {
				t.Fatalf("entry %d: exp sum %g, want %g", k, fx.ExpSum[k], sum)
			}
			wc, wa, wb, ws := elt.SampleParams(e.Rec)
			if fx.SampleConst[k] != wc || fx.SampleA[k] != wa || fx.SampleB[k] != wb || fx.SampleScale[k] != ws {
				t.Fatalf("entry %d: sampling plan (%g,%g,%g,%g), want (%g,%g,%g,%g)",
					k, fx.SampleConst[k], fx.SampleA[k], fx.SampleB[k], fx.SampleScale[k], wc, wa, wb, ws)
			}
		}
	}
}

// Span must frame exactly the entries EntriesFor returns, for both
// loss-bearing and loss-free event IDs (including beyond the indexed
// range).
func TestFlatSpanMatchesEntriesFor(t *testing.T) {
	_, ix, fx := flatScenario(t)
	maxID := uint32(len(ix.rowOf)) + 10
	for ev := uint32(0); ev < maxID; ev++ {
		lo, hi := fx.Span(ev)
		ents := ix.EntriesFor(ev)
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
