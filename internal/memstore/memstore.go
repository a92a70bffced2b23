// Package memstore is the "accumulate large quantities of physical
// memory" strategy from the paper's conclusions: an in-memory,
// chunked, columnar table store built for scan-oriented analytics
// ("data needs to be scanned over rather than randomly accessed",
// §II). It enforces an explicit memory budget so experiments can
// locate the point where in-memory analytics stops being viable and
// the distributed-file strategy must take over (<1 TB in the paper;
// scaled down here).
package memstore

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrBudgetExceeded is returned when an append would push the store
// past its memory budget — the signal that the dataset has outgrown
// the in-memory strategy.
var ErrBudgetExceeded = errors.New("memstore: memory budget exceeded")

// DefaultChunkRows is the row count per chunk. 64K rows keeps chunks
// around cache-friendly sizes for float64 columns.
const DefaultChunkRows = 1 << 16

// Schema describes the columns of a table.
type Schema struct {
	Float64Cols []string
	Uint32Cols  []string
}

// rowBytes is the memory footprint of one row under the schema.
func (s Schema) rowBytes() int64 {
	return int64(8*len(s.Float64Cols) + 4*len(s.Uint32Cols))
}

// chunk is a block of rows in columnar layout.
type chunk struct {
	f64 [][]float64
	u32 [][]uint32
	n   int
}

// Table is a chunked columnar table with a hard memory budget shared
// through an optional Arena.
type Table struct {
	schema    Schema
	chunkRows int
	chunks    []*chunk
	rows      int64
	arena     *Arena
}

// Arena is a byte budget shared by a set of tables, standing in for
// the physical memory of the analysis host.
type Arena struct {
	budget int64
	used   atomic.Int64
}

// NewArena returns an arena with the given byte budget; budget <= 0
// means unlimited.
func NewArena(budget int64) *Arena { return &Arena{budget: budget} }

// Used returns the bytes currently accounted to the arena.
func (a *Arena) Used() int64 { return a.used.Load() }

// Budget returns the arena's byte budget (0 = unlimited).
func (a *Arena) Budget() int64 { return a.budget }

func (a *Arena) reserve(n int64) error {
	if a == nil {
		return nil
	}
	newUsed := a.used.Add(n)
	if a.budget > 0 && newUsed > a.budget {
		a.used.Add(-n)
		return fmt.Errorf("%w: used %d + %d > budget %d", ErrBudgetExceeded, newUsed-n, n, a.budget)
	}
	return nil
}

func (a *Arena) release(n int64) {
	if a != nil {
		a.used.Add(-n)
	}
}

// NewTable returns an empty table. arena may be nil (unlimited);
// chunkRows <= 0 uses DefaultChunkRows.
func NewTable(schema Schema, arena *Arena, chunkRows int) *Table {
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}
	return &Table{schema: schema, chunkRows: chunkRows, arena: arena}
}

// Rows returns the number of rows appended so far.
func (t *Table) Rows() int64 { return t.rows }

// NumChunks returns the number of storage chunks.
func (t *Table) NumChunks() int { return len(t.chunks) }

// SizeBytes returns the memory accounted for the table's data.
func (t *Table) SizeBytes() int64 {
	return int64(len(t.chunks)) * int64(t.chunkRows) * t.schema.rowBytes()
}

func (t *Table) addChunk() error {
	bytes := int64(t.chunkRows) * t.schema.rowBytes()
	if err := t.arena.reserve(bytes); err != nil {
		return err
	}
	c := &chunk{
		f64: make([][]float64, len(t.schema.Float64Cols)),
		u32: make([][]uint32, len(t.schema.Uint32Cols)),
	}
	for i := range c.f64 {
		c.f64[i] = make([]float64, t.chunkRows)
	}
	for i := range c.u32 {
		c.u32[i] = make([]uint32, t.chunkRows)
	}
	t.chunks = append(t.chunks, c)
	return nil
}

// Append adds one row. f64 and u32 must match the schema arity.
func (t *Table) Append(f64 []float64, u32 []uint32) error {
	if len(f64) != len(t.schema.Float64Cols) || len(u32) != len(t.schema.Uint32Cols) {
		return fmt.Errorf("memstore: row arity (%d,%d) does not match schema (%d,%d)",
			len(f64), len(u32), len(t.schema.Float64Cols), len(t.schema.Uint32Cols))
	}
	idx := int(t.rows) % t.chunkRows
	if idx == 0 && int(t.rows)/t.chunkRows == len(t.chunks) {
		if err := t.addChunk(); err != nil {
			return err
		}
	}
	c := t.chunks[len(t.chunks)-1]
	for i, v := range f64 {
		c.f64[i][idx] = v
	}
	for i, v := range u32 {
		c.u32[i][idx] = v
	}
	c.n = idx + 1
	t.rows++
	return nil
}

// Release returns the table's memory to the arena and drops the data.
func (t *Table) Release() {
	t.arena.release(t.SizeBytes())
	t.chunks = nil
	t.rows = 0
}

// ChunkView is the read-only view scan callbacks receive.
type ChunkView struct {
	F64 [][]float64
	U32 [][]uint32
	// Base is the global row index of the first row in the view.
	Base int64
}

// Rows returns the number of valid rows in the view.
func (v ChunkView) Rows() int {
	if len(v.F64) > 0 {
		return len(v.F64[0])
	}
	if len(v.U32) > 0 {
		return len(v.U32[0])
	}
	return 0
}

// Scan streams every chunk through fn sequentially — the baseline
// single-process scan.
func (t *Table) Scan(fn func(ChunkView) error) error {
	for ci, c := range t.chunks {
		if err := fn(t.view(ci, c)); err != nil {
			return err
		}
	}
	return nil
}

func (t *Table) view(ci int, c *chunk) ChunkView {
	v := ChunkView{Base: int64(ci) * int64(t.chunkRows)}
	v.F64 = make([][]float64, len(c.f64))
	for i := range c.f64 {
		v.F64[i] = c.f64[i][:c.n]
	}
	v.U32 = make([][]uint32, len(c.u32))
	for i := range c.u32 {
		v.U32[i] = c.u32[i][:c.n]
	}
	return v
}
