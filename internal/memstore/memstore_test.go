package memstore

import (
	"errors"
	"testing"
)

func testSchema() Schema {
	return Schema{Float64Cols: []string{"loss"}, Uint32Cols: []string{"event"}}
}

func TestAppendAndScan(t *testing.T) {
	tbl := NewTable(testSchema(), nil, 16)
	const n = 100
	for i := 0; i < n; i++ {
		if err := tbl.Append([]float64{float64(i)}, []uint32{uint32(i * 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Rows() != n {
		t.Fatalf("Rows = %d", tbl.Rows())
	}
	if tbl.NumChunks() != (n+15)/16 {
		t.Fatalf("NumChunks = %d", tbl.NumChunks())
	}
	var sum float64
	var rows int
	var base int64 = -1
	err := tbl.Scan(func(v ChunkView) error {
		if v.Base <= base {
			t.Fatal("chunks out of order in sequential scan")
		}
		base = v.Base
		for i := 0; i < v.Rows(); i++ {
			sum += v.F64[0][i]
			if v.U32[0][i] != uint32((v.Base+int64(i))*2) {
				t.Fatalf("u32 column mismatch at row %d", v.Base+int64(i))
			}
			rows++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != n {
		t.Fatalf("scanned %d rows", rows)
	}
	if sum != float64(n*(n-1)/2) {
		t.Fatalf("sum = %v", sum)
	}
}

func TestAppendArityChecked(t *testing.T) {
	tbl := NewTable(testSchema(), nil, 4)
	if err := tbl.Append([]float64{1, 2}, []uint32{1}); err == nil {
		t.Fatal("wrong f64 arity should error")
	}
	if err := tbl.Append([]float64{1}, nil); err == nil {
		t.Fatal("wrong u32 arity should error")
	}
}

func TestScanError(t *testing.T) {
	tbl := NewTable(testSchema(), nil, 4)
	for i := 0; i < 20; i++ {
		if err := tbl.Append([]float64{1}, []uint32{1}); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("scan boom")
	if err := tbl.Scan(func(ChunkView) error { return boom }); !errors.Is(err, boom) {
		t.Fatal("sequential scan should propagate error")
	}
}

func TestArenaBudgetEnforced(t *testing.T) {
	// Each chunk of 16 rows costs 16 * 12 = 192 bytes. Budget for 2.
	arena := NewArena(400)
	tbl := NewTable(testSchema(), arena, 16)
	var appended int
	var budgetErr error
	for i := 0; i < 100; i++ {
		if err := tbl.Append([]float64{1}, []uint32{1}); err != nil {
			budgetErr = err
			break
		}
		appended++
	}
	if !errors.Is(budgetErr, ErrBudgetExceeded) {
		t.Fatalf("expected budget error, got %v after %d rows", budgetErr, appended)
	}
	if appended != 32 {
		t.Fatalf("appended %d rows before budget, want 32", appended)
	}
	if arena.Used() != 384 {
		t.Fatalf("arena used = %d", arena.Used())
	}
	tbl.Release()
	if arena.Used() != 0 {
		t.Fatalf("after Release arena used = %d", arena.Used())
	}
	if tbl.Rows() != 0 || tbl.NumChunks() != 0 {
		t.Fatal("Release should drop data")
	}
}

func TestArenaSharedBetweenTables(t *testing.T) {
	arena := NewArena(400)
	a := NewTable(testSchema(), arena, 16)
	b := NewTable(testSchema(), arena, 16)
	if err := a.Append([]float64{1}, []uint32{1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Append([]float64{1}, []uint32{1}); err != nil {
		t.Fatal(err)
	}
	// Third chunk anywhere must fail: 3*192 > 400.
	c := NewTable(testSchema(), arena, 16)
	if err := c.Append([]float64{1}, []uint32{1}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if arena.Budget() != 400 {
		t.Fatal("Budget accessor")
	}
}

func TestChunkViewRows(t *testing.T) {
	v := ChunkView{}
	if v.Rows() != 0 {
		t.Fatal("empty view rows")
	}
	v = ChunkView{U32: [][]uint32{{1, 2, 3}}}
	if v.Rows() != 3 {
		t.Fatal("u32-only view rows")
	}
}
