package catmodel

import (
	"context"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exposure"
)

func smallWorld(t *testing.T, nEvents, nLocs int, seed uint64) (*catalog.Catalog, *exposure.Database) {
	t.Helper()
	ccfg := catalog.DefaultConfig()
	ccfg.NumEvents = nEvents
	cat, err := catalog.Generate(ccfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	ecfg := exposure.DefaultConfig()
	ecfg.NumLocations = nLocs
	db, err := exposure.Generate(ecfg, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	return cat, db
}

func TestRunProducesSortedELT(t *testing.T) {
	cat, db := smallWorld(t, 2000, 300, 5)
	eng := New()
	tbl, err := eng.Run(context.Background(), cat, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() == 0 {
		t.Fatal("expected some events to produce losses")
	}
	for i := 1; i < tbl.Len(); i++ {
		if tbl.Records[i-1].EventID >= tbl.Records[i].EventID {
			t.Fatal("ELT not sorted by event ID")
		}
	}
	for _, r := range tbl.Records {
		if r.MeanLoss <= 0 {
			t.Fatalf("non-positive mean loss in ELT: %+v", r)
		}
		if r.SigmaI < 0 || r.SigmaC < 0 {
			t.Fatalf("negative sigma: %+v", r)
		}
		if r.MeanLoss > r.ExposedValue+1e-6 {
			t.Fatalf("mean loss exceeds exposed value: %+v", r)
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	// The MapReduce shape must make parallelism invisible: identical
	// ELTs regardless of worker count.
	cat, db := smallWorld(t, 1500, 200, 8)
	eng1 := New()
	eng1.Workers = 1
	eng8 := New()
	eng8.Workers = 8
	t1, err := eng1.Run(context.Background(), cat, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	t8, err := eng8.Run(context.Background(), cat, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Len() != t8.Len() {
		t.Fatalf("lengths differ: %d vs %d", t1.Len(), t8.Len())
	}
	for i := range t1.Records {
		a, b := t1.Records[i], t8.Records[i]
		if a.EventID != b.EventID ||
			math.Abs(a.MeanLoss-b.MeanLoss) > 1e-9*(1+a.MeanLoss) ||
			math.Abs(a.SigmaI-b.SigmaI) > 1e-9*(1+a.SigmaI) {
			t.Fatalf("record %d differs across worker counts: %+v vs %+v", i, a, b)
		}
	}
}

func TestRunEmptyCatalog(t *testing.T) {
	_, db := smallWorld(t, 10, 50, 2)
	eng := New()
	tbl, err := eng.Run(context.Background(), catalog.NewCatalog(nil), db, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 0 || tbl.ContractID != 3 {
		t.Fatalf("empty catalogue should yield empty ELT, got %d records", tbl.Len())
	}
}

func TestRunRespectsCancellation(t *testing.T) {
	cat, db := smallWorld(t, 5000, 500, 4)
	eng := New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(ctx, cat, db, 1); err == nil {
		t.Fatal("cancelled context should abort the run")
	}
}

func TestRunPortfolioAssignsContractIDs(t *testing.T) {
	cat, _ := smallWorld(t, 500, 10, 12)
	dbs := make([]*exposure.Database, 3)
	for i := range dbs {
		ecfg := exposure.DefaultConfig()
		ecfg.NumLocations = 50
		db, err := exposure.Generate(ecfg, uint64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		dbs[i] = db
	}
	eng := New()
	tables, err := eng.RunPortfolio(context.Background(), cat, dbs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("got %d tables", len(tables))
	}
	for i, tbl := range tables {
		if tbl.ContractID != uint32(i+1) {
			t.Fatalf("table %d has contract ID %d", i, tbl.ContractID)
		}
	}
}

// Every record splits its gross standard deviations at the correlated
// share: SigmaC adds √share·σ over the interests, SigmaI adds
// (1−share)·σ² in quadrature, so share/(1−share)·SigmaI² ≤ SigmaC², with
// equality where one interest takes the loss.
func TestCorrelatedShareSplitsVariance(t *testing.T) {
	cat, db := smallWorld(t, 1000, 150, 14)
	tbl, err := New().Run(context.Background(), cat, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	var tight int
	for _, r := range tbl.Records {
		lhs, rhs := correlatedShare/(1-correlatedShare)*r.SigmaI*r.SigmaI, r.SigmaC*r.SigmaC
		if r.SigmaC <= 0 || lhs > rhs*(1+1e-12) {
			t.Fatalf("record %+v: share/(1-share)·SigmaI² = %v, SigmaC² = %v", r, lhs, rhs)
		}
		if lhs >= rhs*(1-1e-12) {
			tight++
		}
	}
	if tight == 0 || tight == tbl.Len() {
		t.Fatalf("%d of %d records have one interest: the bound is not exercised both ways", tight, tbl.Len())
	}
}
