package rdbms

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestInsertGetSmall(t *testing.T) {
	tbl, err := New(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	keys := []uint64{5, 1, 9, 3, 7, 2, 8, 4, 6, 0}
	for _, k := range keys {
		if err := tbl.Insert(k, []float64{float64(k), float64(k) * 10}); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Len() != 10 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	for _, k := range keys {
		vals, ok := tbl.Get(k)
		if !ok {
			t.Fatalf("Get(%d) missing", k)
		}
		if vals[0] != float64(k) || vals[1] != float64(k)*10 {
			t.Fatalf("Get(%d) = %v", k, vals)
		}
	}
	if _, ok := tbl.Get(99); ok {
		t.Fatal("absent key found")
	}
}

func TestOverwrite(t *testing.T) {
	tbl, _ := New(1, 4)
	if err := tbl.Insert(7, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(7, []float64{2}); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d after overwrite", tbl.Len())
	}
	if v, _ := tbl.Get(7); v[0] != 2 {
		t.Fatalf("overwrite lost: %v", v)
	}
}

func TestWidthValidation(t *testing.T) {
	tbl, _ := New(2, 0)
	if err := tbl.Insert(1, []float64{1}); !errors.Is(err, ErrWidthMismatch) {
		t.Fatalf("err = %v", err)
	}
	if _, err := New(0, 4); err == nil {
		t.Fatal("zero width should error")
	}
	if _, err := New(1, 2); err == nil {
		t.Fatal("order 2 should error")
	}
}

func TestScanOrdered(t *testing.T) {
	tbl, _ := New(1, 5)
	const n = 10_000
	// Insert in a scrambled deterministic order.
	for i := 0; i < n; i++ {
		k := uint64((i * 7919) % n)
		if err := tbl.Insert(k, []float64{float64(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Len() != n {
		t.Fatalf("Len = %d", tbl.Len())
	}
	var prev int64 = -1
	var count int
	err := tbl.Scan(func(k uint64, vals []float64) error {
		if int64(k) <= prev {
			t.Fatalf("scan out of order: %d after %d", k, prev)
		}
		if vals[0] != float64(k) {
			t.Fatalf("payload mismatch at %d", k)
		}
		prev = int64(k)
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("scanned %d rows", count)
	}
	if tbl.Height() < 3 {
		t.Fatalf("height %d suspicious for order-5 tree with 10k keys", tbl.Height())
	}
}

func TestScanError(t *testing.T) {
	tbl, _ := New(1, 4)
	for i := uint64(0); i < 100; i++ {
		if err := tbl.Insert(i, []float64{0}); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("scan boom")
	if err := tbl.Scan(func(uint64, []float64) error { return boom }); !errors.Is(err, boom) {
		t.Fatal("scan should propagate error")
	}
}

func TestPageAccounting(t *testing.T) {
	tbl, _ := New(1, 8)
	const n = 50_000
	for i := uint64(0); i < n; i++ {
		if err := tbl.Insert(i, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	tbl.ResetStats()
	// One scan touches each leaf once: ~n/avgFill pages.
	if err := tbl.Scan(func(uint64, []float64) error { return nil }); err != nil {
		t.Fatal(err)
	}
	scanPages := tbl.Stats().PageReads
	tbl.ResetStats()
	// Random access touches height pages per lookup.
	for i := uint64(0); i < n; i += 100 {
		tbl.Get(i)
	}
	lookupPages := tbl.Stats().PageReads
	lookups := uint64(n / 100)
	if lookupPages != lookups*uint64(tbl.Height()) {
		t.Fatalf("lookup pages = %d, want %d·%d", lookupPages, lookups, tbl.Height())
	}
	// The paper's point in numbers: per-row page cost of random access
	// dwarfs the scan (scan amortizes a page over many rows).
	perRowScan := float64(scanPages) / n
	perRowLookup := float64(lookupPages) / float64(lookups)
	if perRowLookup < 20*perRowScan {
		t.Fatalf("random access should cost ≫ scan per row: %v vs %v", perRowLookup, perRowScan)
	}
}

func TestPropertyMatchesMapModel(t *testing.T) {
	f := func(ops []uint16) bool {
		tbl, err := New(1, 4) // tiny order to force deep trees
		if err != nil {
			return false
		}
		model := map[uint64]float64{}
		for i, op := range ops {
			k := uint64(op % 256)
			v := float64(i)
			if err := tbl.Insert(k, []float64{v}); err != nil {
				return false
			}
			model[k] = v
		}
		if tbl.Len() != len(model) {
			return false
		}
		for k, v := range model {
			got, ok := tbl.Get(k)
			if !ok || got[0] != v {
				return false
			}
		}
		// Scan yields exactly the model's keys, in order.
		var prev int64 = -1
		count := 0
		err = tbl.Scan(func(k uint64, vals []float64) error {
			if int64(k) <= prev {
				return errors.New("order")
			}
			if model[k] != vals[0] {
				return errors.New("value")
			}
			prev = int64(k)
			count++
			return nil
		})
		return err == nil && count == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
