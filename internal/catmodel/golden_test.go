package catmodel

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/elt"
	"repro/internal/exposure"
)

// goldenELTDigest was computed at the commit before the footprint-culled
// kernel replaced the per-pair loop (dbd893f), so it pins stage-1 output
// across commits, not only across implementations inside one binary.
const goldenELTDigest = 0x20722f169e7f3911

// digestELTs is FNV-1a over every table's contract ID and record count
// and every record's event ID and float bits.
func digestELTs(tables []*elt.Table) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, t := range tables {
		put(uint64(t.ContractID))
		put(uint64(len(t.Records)))
		for _, r := range t.Records {
			put(uint64(r.EventID))
			put(math.Float64bits(r.MeanLoss))
			put(math.Float64bits(r.SigmaI))
			put(math.Float64bits(r.SigmaC))
			put(math.Float64bits(r.ExposedValue))
		}
	}
	return h.Sum64()
}

func TestGoldenELTDigest(t *testing.T) {
	ccfg := catalog.DefaultConfig()
	ccfg.NumEvents = 500
	cat, err := catalog.Generate(ccfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	dbs := make([]*exposure.Database, 2)
	records := 0
	for c := range dbs {
		ecfg := exposure.DefaultConfig()
		ecfg.NumLocations = 30
		if dbs[c], err = exposure.Generate(ecfg, 7+uint64(c+1)); err != nil {
			t.Fatal(err)
		}
	}
	tables, err := New().RunPortfolio(context.Background(), cat, dbs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range tables {
		records += tbl.Len()
	}
	if records == 0 {
		t.Fatal("golden book produced no ELT records; the digest would pin nothing")
	}
	if got := digestELTs(tables); got != goldenELTDigest {
		t.Fatalf("stage-1 output changed: ELT digest %#x over %d records, want %#x", got, records, uint64(goldenELTDigest))
	}
}
