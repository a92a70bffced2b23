package memstore

import "testing"

func benchTableRows(b *testing.B, rows int) *Table {
	b.Helper()
	t := NewTable(Schema{Float64Cols: []string{"loss"}, Uint32Cols: []string{"trial"}}, nil, DefaultChunkRows)
	for i := 0; i < rows; i++ {
		if err := t.Append([]float64{float64(i)}, []uint32{uint32(i >> 4)}); err != nil {
			b.Fatal(err)
		}
	}
	return t
}

func BenchmarkAppend(b *testing.B) {
	t := NewTable(Schema{Float64Cols: []string{"loss"}, Uint32Cols: []string{"trial"}}, nil, DefaultChunkRows)
	row := []float64{1.5}
	u := []uint32{7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := t.Append(row, u); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanSequential(b *testing.B) {
	t := benchTableRows(b, 2_000_000)
	b.SetBytes(2_000_000 * 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink float64
		if err := t.Scan(func(v ChunkView) error {
			col := v.F64[0]
			for _, x := range col {
				sink += x
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		_ = sink
	}
}
