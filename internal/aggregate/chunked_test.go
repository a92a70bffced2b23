package aggregate

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/lossindex"
	"repro/internal/synth"
)

// legacyVectors is the superseded host-side loss-vector construction:
// a nested walk of every row's entries through the Contract structs
// and their []Layer — the reference Flat.DeviceVectors is pinned
// against.
func legacyVectors(in *Input, idx *lossindex.Index) (aggVec, occVec []float64) {
	numRows := idx.NumRows()
	aggVec = make([]float64, numRows)
	occVec = make([]float64, numRows)
	for row := 0; row < numRows; row++ {
		for _, e := range idx.Entries(int32(row)) {
			ct := &in.Portfolio.Contracts[e.Contract]
			for _, l := range ct.Layers {
				r := l.ApplyOccurrence(e.Rec.MeanLoss)
				if r <= 0 {
					continue
				}
				share := l.Share
				if share == 0 {
					share = 1
				}
				aggVec[row] += r * share
				occVec[row] += r
			}
		}
	}
	return aggVec, occVec
}

// The device engine's loss vectors are projected from the flat kernel
// layout's pre-applied ExpRec column. The projection must be exactly
// equal to the nested Contract walk — same additions in the same order — not just
// close.
func TestChunkedVectorsMatchLegacy(t *testing.T) {
	for _, seed := range []uint64{7, 10, 21} { // incl. books with agg terms and shares
		p := synth.Small(seed)
		p.TwoLayers = seed%2 == 1
		s := buildScenario(t, p)
		in := input(s)
		fx, err := in.EnsureFlat()
		if err != nil {
			t.Fatal(err)
		}
		aggVec, occVec := fx.DeviceVectors()
		wantAgg, wantOcc := legacyVectors(in, fx.Index())
		bitIdentical(t, "aggVec", wantAgg, aggVec)
		bitIdentical(t, "occVec", wantOcc, occVec)
	}
}

// A run is one device pass whatever the input and batch size: both
// loss vectors, every occurrence and the n+1 offsets go up once, and
// the two n-trial tables come down once. The output is bit-identical to
// the materialized run, and the whole table is resident.
func TestChunkedOnePassTransfers(t *testing.T) {
	p := synth.Small(61)
	p.OccurrenceOnly = true
	s := buildScenario(t, p)
	in := input(s)
	fx, err := in.EnsureFlat()
	if err != nil {
		t.Fatal(err)
	}
	n := s.YELT.NumTrials
	wantFloats := uint64(2*fx.Index().NumRows() + len(s.YELT.Occs) + (n + 1) + 2*n)
	want, err := (&Chunked{}).Run(context.Background(), in, Config{})
	if err != nil {
		t.Fatal(err)
	}

	for _, streaming := range []bool{false, true} {
		for _, batch := range []int{0, 97, 4096} {
			name := fmt.Sprintf("streaming=%v/batch=%d", streaming, batch)
			run := &Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio, Flat: fx}
			if streaming {
				run = streamingInput(t, s, fx.Index())
				run.Flat = fx
			}
			ch := &Chunked{}
			got, err := ch.Run(context.Background(), run, Config{BatchTrials: batch})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if ch.LastStats.TransferFloats != wantFloats {
				t.Fatalf("%s: transfers = %d, want %d (one upload, one download)", name, ch.LastStats.TransferFloats, wantFloats)
			}
			if got.PeakResidentBytes != s.YELT.SizeBytes() {
				t.Fatalf("%s: peak resident %d, want the table's %d", name, got.PeakResidentBytes, s.YELT.SizeBytes())
			}
			bitIdentical(t, name+" agg", want.Portfolio.Agg, got.Portfolio.Agg)
			bitIdentical(t, name+" occmax", want.Portfolio.OccMax, got.Portfolio.OccMax)
		}
	}
}
