package aggregate

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/elt"
	"repro/internal/layers"
	"repro/internal/rng"
	"repro/internal/yelt"
)

// touchedBook is a book whose flat layout runs past two bitmap words
// and ends inside a third: 151 layer slots over 77 contracts. Contract
// 0 is written by hand with three layers; the others cycle through
// one, two and three layers drawn from a set of terms that includes an
// aggregate retention of 0 and of NaN, unlimited occurrence and
// aggregate limits, and a zero share. Each contract has its own ELT
// over events 1–40, with and without spread; events 41–50 are in no
// ELT.
func touchedBook(t *testing.T) (elts []*elt.Table, pf *layers.Portfolio) {
	t.Helper()
	nan := math.NaN()
	terms := []layers.Layer{
		{OccRetention: 200, OccLimit: 900, AggRetention: 0, Share: 0},
		{OccRetention: 650, AggRetention: nan, AggLimit: 2500, Share: 0.3},
		{OccRetention: 0, OccLimit: 400, AggRetention: 350.5, AggLimit: 0, Share: 0.7},
		{OccRetention: 1200, AggRetention: 100, AggLimit: 1700, Share: 0.45},
		{OccRetention: 90, OccLimit: 130, AggRetention: nan, Share: 1},
	}
	st := rng.New(83)
	pf = &layers.Portfolio{}
	slots := 0
	for ci := 0; slots < 151; ci++ {
		var ls []layers.Layer
		if ci == 0 {
			ls = []layers.Layer{
				{OccRetention: 100, OccLimit: 300, AggRetention: 150, AggLimit: 400, Share: 0.5},
				{OccRetention: 400, AggRetention: nan, AggLimit: 500, Share: 0.25},
				{OccRetention: 50, AggRetention: 0, Share: 0},
			}
		} else {
			for li := 0; li < ci%3+1 && slots+len(ls) < 151; li++ {
				ls = append(ls, terms[(ci+2*li)%len(terms)])
			}
		}
		slots += len(ls)
		var recs []elt.Record
		for ev := uint32(1); ev <= 40; ev++ {
			if st.Float64() < 0.4 {
				mean := 50 + 2500*st.Float64()
				r := elt.Record{EventID: ev, MeanLoss: mean, ExposedValue: 4 * mean}
				if ev%3 != 0 {
					r.SigmaI, r.SigmaC = 0.5*mean, 0.3*mean
				}
				recs = append(recs, r)
			}
		}
		elts = append(elts, elt.New(uint32(ci+1), recs))
		pf.Contracts = append(pf.Contracts, layers.Contract{ID: uint32(ci + 1), ELTIndex: ci, Layers: ls})
	}
	return elts, pf
}

// touchedYears draws 320 trial years of up to eight occurrences over
// events 1–50. Trial 3 has no occurrence, and trials 128–191 — a whole
// block of 64, and every block of 7 or 1 inside it — only events no
// contract covers.
func touchedYears() *yelt.Table {
	st := rng.New(84)
	y := &yelt.Table{NumTrials: 320, Offsets: []int64{0}}
	for tr := 0; tr < y.NumTrials; tr++ {
		n := int(st.Float64() * 9)
		if tr == 3 {
			n = 0
		}
		for j := 0; j < n; j++ {
			ev := uint32(1 + st.Float64()*50)
			if tr >= 128 && tr < 192 {
				ev = 41 + ev%10
			}
			y.Occs = append(y.Occs, ev)
		}
		y.Offsets = append(y.Offsets, int64(len(y.Occs)))
	}
	return y
}

// TestTouchedSlotEdges holds the occurrence stages' slot marks and the
// annual pass over the marked slots to the LegacyLookup oracle, bit for
// bit on Agg, OccMax and the per-contract columns, where the bitmap
// meets its edges: a last word only partly used, a trial without
// occurrences, blocks in which nothing hits, NaN and zero aggregate
// retentions, unlimited limits and a zero share. Sequential, Parallel
// and MapReduce run it at trial blocks of 1, 7 and 64, in expected mode
// with and without per-contract tables and in sampling mode with and
// without them. The book must pay on slots of the third word and on
// enough contracts per trial that the order of the portfolio sum shows.
func TestTouchedSlotEdges(t *testing.T) {
	elts, pf := touchedBook(t)
	years := touchedYears()
	in := &Input{YELT: years, ELTs: elts, Portfolio: pf}
	fx, err := in.EnsureFlat()
	if err != nil {
		t.Fatal(err)
	}
	if nl := fx.NumLayers(); nl <= 128 || nl%64 == 0 {
		t.Fatalf("book has %d layer slots, want more than 128 and not a multiple of 64", nl)
	}

	for _, mode := range []struct {
		sampling, perContract bool
	}{{false, false}, {false, true}, {true, false}, {true, true}} {
		base := Config{Seed: 85, Sampling: mode.sampling, PerContract: mode.perContract}
		want, err := (LegacyLookup{}).Run(context.Background(), &Input{YELT: years, ELTs: elts, Portfolio: pf}, base)
		if err != nil {
			t.Fatal(err)
		}
		checkTouchedCoverage(t, fx.Terms.First, want, mode.perContract)
		for _, e := range []Engine{Sequential{}, Parallel{}, MapReduce{SplitTrials: 90}} {
			for _, block := range []int{1, 7, 64} {
				name := fmt.Sprintf("%s/sampling=%v/perContract=%v/block=%d", e.Name(), mode.sampling, mode.perContract, block)
				cfg := base
				cfg.TrialBlock, cfg.BatchTrials, cfg.Workers = block, 100, 3
				got, err := e.Run(context.Background(), in, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				bitIdentical(t, name+" agg", got.Portfolio.Agg, want.Portfolio.Agg)
				bitIdentical(t, name+" occmax", got.Portfolio.OccMax, want.Portfolio.OccMax)
				if len(got.PerContract) != len(want.PerContract) {
					t.Fatalf("%s: %d per-contract tables, want %d", name, len(got.PerContract), len(want.PerContract))
				}
				for ci := range want.PerContract {
					bitIdentical(t, fmt.Sprintf("%s contract %d agg", name, ci), got.PerContract[ci].Agg, want.PerContract[ci].Agg)
					bitIdentical(t, fmt.Sprintf("%s contract %d occmax", name, ci), got.PerContract[ci].OccMax, want.PerContract[ci].OccMax)
				}
			}
		}
	}
}

// checkTouchedCoverage fails if the oracle's run would pin too little:
// trial 3 and trials 128–191 must recover nothing, and — read from the
// per-contract tables when there are any — some contract whose slots
// lie in the bitmap's last word must pay, and some trial must be paid
// by at least three contracts.
func checkTouchedCoverage(t *testing.T, first []int32, res *Result, perContract bool) {
	t.Helper()
	for tr := 0; tr < res.Portfolio.NumTrials(); tr++ {
		if (tr == 3 || tr >= 128 && tr < 192) && (res.Portfolio.Agg[tr] != 0 || res.Portfolio.OccMax[tr] != 0) {
			t.Fatalf("trial %d has no hit but recovers %v", tr, res.Portfolio.Agg[tr])
		}
	}
	if !perContract {
		return
	}
	lastWord, many := false, false
	for tr := 0; tr < res.Portfolio.NumTrials(); tr++ {
		paying := 0
		for ci, c := range res.PerContract {
			if c.Agg[tr] > 0 {
				paying++
				lastWord = lastWord || first[ci] >= 128
			}
		}
		many = many || paying >= 3
	}
	if !lastWord || !many {
		t.Fatalf("book pins too little: a contract in the last word pays: %v; a trial paid by three contracts: %v", lastWord, many)
	}
}

// TestNaNOccRetentionPaysNothing holds the engines to LegacyLookup on a
// book where one contract's layer has a NaN occurrence retention and
// another, over the same ELT, an ordinary one; events without spread
// hit both. The NaN layer pays +0 per occurrence everywhere, so the
// portfolio's OccMax is the other contract's recovery, in sampling mode
// as in expected mode.
func TestNaNOccRetentionPaysNothing(t *testing.T) {
	recs := []elt.Record{{EventID: 1, MeanLoss: 300, ExposedValue: 1000}, {EventID: 2, MeanLoss: 450, ExposedValue: 1000}}
	elts := []*elt.Table{elt.New(1, recs), elt.New(2, recs)}
	pf := &layers.Portfolio{Contracts: []layers.Contract{
		{ID: 1, ELTIndex: 0, Layers: []layers.Layer{{OccRetention: math.NaN(), OccLimit: 500}}},
		{ID: 2, ELTIndex: 1, Layers: []layers.Layer{{OccRetention: 100}}},
	}}
	years := &yelt.Table{NumTrials: 4, Offsets: []int64{0, 1, 3, 3, 4}, Occs: []uint32{1, 2, 1, 2}}
	in := &Input{YELT: years, ELTs: elts, Portfolio: pf}
	for _, sampling := range []bool{true, false} {
		cfg := Config{Seed: 5, Sampling: sampling}
		want, err := (LegacyLookup{}).Run(context.Background(), in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := want.Portfolio.OccMax; got[0] != 200 || got[1] != 350 || got[2] != 0 || got[3] != 350 {
			t.Fatalf("sampling=%v: LegacyLookup OccMax %v, want [200 350 0 350]", sampling, got)
		}
		for _, e := range []Engine{Sequential{}, Parallel{}, MapReduce{SplitTrials: 3}} {
			name := fmt.Sprintf("%s/sampling=%v", e.Name(), sampling)
			got, err := e.Run(context.Background(), in, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			bitIdentical(t, name+" agg", got.Portfolio.Agg, want.Portfolio.Agg)
			bitIdentical(t, name+" occmax", got.Portfolio.OccMax, want.Portfolio.OccMax)
		}
	}
}
