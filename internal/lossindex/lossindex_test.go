package lossindex

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/elt"
	"repro/internal/layers"
)

func testPortfolio(n int) *layers.Portfolio {
	pf := &layers.Portfolio{}
	for c := 0; c < n; c++ {
		pf.Contracts = append(pf.Contracts, layers.Contract{
			ID: uint32(c + 1), ELTIndex: c,
			Layers: []layers.Layer{{OccLimit: 100, Share: 1}},
		})
	}
	return pf
}

func testTables() []*elt.Table {
	// Three contracts with overlapping, disjoint and zero-mean events.
	return []*elt.Table{
		elt.New(1, []elt.Record{
			{EventID: 2, MeanLoss: 10, SigmaI: 1, ExposedValue: 50},
			{EventID: 5, MeanLoss: 3, SigmaC: 2, ExposedValue: 20},
			{EventID: 9, MeanLoss: 0, ExposedValue: 4}, // zero mean: excluded
		}),
		elt.New(2, []elt.Record{
			{EventID: 2, MeanLoss: 7, ExposedValue: 30},
			{EventID: 7, MeanLoss: 1, ExposedValue: 9},
		}),
		elt.New(3, []elt.Record{
			{EventID: 11, MeanLoss: 4, ExposedValue: 12},
		}),
	}
}

// The index must round-trip exactly the records reachable via
// elt.Table.Lookup (with positive mean loss), for every event in the
// indexed range and beyond it.
func TestRoundTripAgainstLookup(t *testing.T) {
	elts := testTables()
	pf := testPortfolio(len(elts))
	ix, err := Build(elts, pf)
	if err != nil {
		t.Fatal(err)
	}
	for ev := uint32(0); ev < 64; ev++ {
		entries := ix.EntriesFor(ev)
		j := 0
		for ci, c := range pf.Contracts {
			rec, ok := elts[c.ELTIndex].Lookup(ev)
			if !ok || rec.MeanLoss <= 0 {
				continue
			}
			if j >= len(entries) {
				t.Fatalf("event %d: missing entry for contract %d", ev, ci)
			}
			e := entries[j]
			if int(e.Contract) != ci || e.Rec != rec {
				t.Fatalf("event %d entry %d: got contract %d rec %+v, want contract %d rec %+v",
					ev, j, e.Contract, e.Rec, ci, rec)
			}
			j++
		}
		if j != len(entries) {
			t.Fatalf("event %d: %d extra entries beyond Lookup-reachable records", ev, len(entries)-j)
		}
	}
}

func TestRowTableShape(t *testing.T) {
	elts := testTables()
	ix, err := Build(elts, testPortfolio(len(elts)))
	if err != nil {
		t.Fatal(err)
	}
	// Loss-bearing events: 2, 5, 7, 11 (9 is zero-mean).
	wantRows := []uint32{2, 5, 7, 11}
	if ix.NumRows() != len(wantRows) {
		t.Fatalf("NumRows = %d, want %d", ix.NumRows(), len(wantRows))
	}
	for r, ev := range wantRows {
		if ix.EventAt(int32(r)) != ev {
			t.Fatalf("row %d holds event %d, want %d", r, ix.EventAt(int32(r)), ev)
		}
		if ix.Row(ev) != int32(r) {
			t.Fatalf("Row(%d) = %d, want %d", ev, ix.Row(ev), r)
		}
	}
	for _, ev := range []uint32{0, 1, 9, 10, 12, 1 << 20} {
		if ix.Row(ev) != -1 {
			t.Fatalf("Row(%d) = %d, want -1", ev, ix.Row(ev))
		}
		if ix.EntriesFor(ev) != nil {
			t.Fatalf("EntriesFor(%d) non-nil for loss-free event", ev)
		}
	}
	// Event 2 is shared by contracts 0 and 1, in that order.
	e := ix.EntriesFor(2)
	if len(e) != 2 || e[0].Contract != 0 || e[1].Contract != 1 {
		t.Fatalf("event 2 entries = %+v, want contracts [0 1]", e)
	}
	if ix.NumEntries() != 5 {
		t.Fatalf("NumEntries = %d, want 5", ix.NumEntries())
	}
	if ix.NumContracts() != 3 {
		t.Fatalf("NumContracts = %d, want 3", ix.NumContracts())
	}
	if ix.SizeBytes() <= 0 {
		t.Fatal("SizeBytes must be positive")
	}
}

// Contracts sharing one table (the single-contract pricing view) must
// each contribute an entry.
func TestSharedTable(t *testing.T) {
	tbl := elt.New(1, []elt.Record{{EventID: 3, MeanLoss: 2, ExposedValue: 8}})
	pf := &layers.Portfolio{Contracts: []layers.Contract{
		{ID: 1, ELTIndex: 0, Layers: []layers.Layer{{}}},
		{ID: 2, ELTIndex: 0, Layers: []layers.Layer{{}}},
	}}
	ix, err := Build([]*elt.Table{tbl}, pf)
	if err != nil {
		t.Fatal(err)
	}
	e := ix.EntriesFor(3)
	if len(e) != 2 || e[0].Contract != 0 || e[1].Contract != 1 {
		t.Fatalf("shared-table entries = %+v", e)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, &layers.Portfolio{}); err == nil {
		t.Fatal("empty portfolio must fail")
	}
	if _, err := Build(nil, nil); err == nil {
		t.Fatal("nil portfolio must fail")
	}
	pf := &layers.Portfolio{Contracts: []layers.Contract{{ID: 1, ELTIndex: 3}}}
	if _, err := Build([]*elt.Table{elt.New(1, nil)}, pf); err == nil {
		t.Fatal("dangling ELT index must fail")
	}
}

// An all-zero-mean book yields an index with no rows but still answers
// probes.
func TestAllZeroMeans(t *testing.T) {
	tbl := elt.New(1, []elt.Record{{EventID: 1, MeanLoss: 0, ExposedValue: 5}})
	ix, err := Build([]*elt.Table{tbl}, testPortfolio(1))
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumRows() != 0 || ix.NumEntries() != 0 {
		t.Fatalf("rows=%d entries=%d, want 0,0", ix.NumRows(), ix.NumEntries())
	}
	if ix.EntriesFor(1) != nil {
		t.Fatal("zero-mean event must not be indexed")
	}
}

// Build refuses a table whose event IDs are not strictly ascending —
// out of order, or one event twice — naming the contract and the ELT,
// because a row must hold at most one entry per contract. A table
// built by elt.New from the same records is sorted and merged, and
// builds.
func TestBuildRefusesUnorderedELT(t *testing.T) {
	for _, tc := range []struct {
		name string
		recs []elt.Record
	}{
		{"unsorted", []elt.Record{
			{EventID: 9, MeanLoss: 4, ExposedValue: 10},
			{EventID: 2, MeanLoss: 3, ExposedValue: 10},
			{EventID: 5, MeanLoss: 2, ExposedValue: 10},
		}},
		{"duplicate", []elt.Record{
			{EventID: 2, MeanLoss: 4, ExposedValue: 10},
			{EventID: 5, MeanLoss: 3, ExposedValue: 10},
			{EventID: 5, MeanLoss: 2, ExposedValue: 10},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			good := elt.New(1, []elt.Record{{EventID: 5, MeanLoss: 1, ExposedValue: 10}})
			bad := &elt.Table{ContractID: 2, Records: slices.Clone(tc.recs)}
			pf := &layers.Portfolio{Contracts: []layers.Contract{
				{ID: 1, ELTIndex: 0, Layers: []layers.Layer{{}}},
				{ID: 7, ELTIndex: 1, Layers: []layers.Layer{{}}},
			}}
			_, err := Build([]*elt.Table{good, bad}, pf)
			if err == nil {
				t.Fatal("accepted")
			}
			if msg := err.Error(); !strings.Contains(msg, "contract 7") || !strings.Contains(msg, "ELT 1") {
				t.Fatalf("error %q names neither contract 7 nor ELT 1", msg)
			}

			ix, err := Build([]*elt.Table{good, elt.New(2, slices.Clone(tc.recs))}, pf)
			if err != nil {
				t.Fatalf("elt.New-built table refused: %v", err)
			}
			for r := int32(0); r < int32(ix.NumRows()); r++ {
				es := ix.Entries(r)
				for j := 1; j < len(es); j++ {
					if es[j].Contract <= es[j-1].Contract {
						t.Fatalf("row %d: contracts %d then %d", r, es[j-1].Contract, es[j].Contract)
					}
				}
			}
			if e := ix.EntriesFor(5); len(e) != 2 || e[1].Contract != 1 {
				t.Fatalf("event 5 entries = %+v, want one per contract", e)
			}
		})
	}
}
