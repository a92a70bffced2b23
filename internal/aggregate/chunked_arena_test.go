package aggregate

import (
	"context"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/lossindex"
	"repro/internal/synth"
	"repro/internal/yelt"
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

// With the two-lifetime arena, a streaming run uploads the loss
// vectors exactly once: the resident transfer counter equals their
// combined size, and the per-batch counter accounts for occurrences,
// offsets and outputs only.
func TestChunkedResidentUploadOnce(t *testing.T) {
	p := synth.Small(61)
	p.OccurrenceOnly = true
	s := buildScenario(t, p)
	in := input(s)
	fx, err := in.EnsureFlat()
	if err != nil {
		t.Fatal(err)
	}
	numRows := fx.Index().NumRows()

	// A provided device large enough for every batch, so the owned-
	// device growth path never reallocates and the resident vectors
	// have no reason to re-upload.
	dev := gpusim.NewDevice(gpusim.DefaultConfig(), 2*numRows+len(s.YELT.Occs)+4*s.YELT.NumTrials+4096)
	ch := &Chunked{Device: dev}
	const batch = 97
	str := streamingInput(t, s, fx.Index())
	str.Flat = fx
	res, err := ch.Run(context.Background(), str, Config{BatchTrials: batch})
	if err != nil {
		t.Fatal(err)
	}

	if got, want := ch.LastStats.ResidentTransferFloats, uint64(2*numRows); got != want {
		t.Fatalf("resident transfers = %d, want exactly %d (one upload of both loss vectors)", got, want)
	}
	// Per-batch traffic: occurrences up, offsets up (bn+1 per batch),
	// agg and occ-max tables down (bn each).
	numTrials := s.YELT.NumTrials
	numBatches := (numTrials + batch - 1) / batch
	wantBatchFloats := uint64(len(s.YELT.Occs) + (numTrials + numBatches) + 2*numTrials)
	if got := ch.LastStats.TransferFloats; got != wantBatchFloats {
		t.Fatalf("per-batch transfers = %d, want %d (loss vectors must not re-stage)", got, wantBatchFloats)
	}

	// And the arena restructure must not change a single bit of output.
	matRef := &Chunked{}
	want, err := matRef.Run(context.Background(), input(s), Config{})
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, "arena agg", want.Portfolio.Agg, res.Portfolio.Agg)
	bitIdentical(t, "arena occmax", want.Portfolio.OccMax, res.Portfolio.OccMax)
}

// growingSource streams a hand-built table through the Source
// interface (wrapping it so the engine takes the streaming path, not
// the materialized-table fast path).
type growingSource struct{ tab *yelt.Table }

func (g growingSource) TrialCount() int { return g.tab.NumTrials }
func (g growingSource) ReadTrials(ctx context.Context, lo, hi int, buf *yelt.Table) (*yelt.Table, error) {
	return g.tab.ReadTrials(ctx, lo, hi, buf)
}

// A streaming run whose later batches carry more occurrences forces
// the owned device to grow mid-run. The replacement must carry the
// accumulated cost-model counters (not reset them) and re-upload the
// resident vectors onto each fresh device — and the output must stay
// bit-identical to the materialized single-pass run.
func TestChunkedStreamingDeviceGrowthCarriesStats(t *testing.T) {
	p := synth.Small(63)
	p.OccurrenceOnly = true
	s := buildScenario(t, p)

	// 60 trials in 6 batches of 10; trials in batch j have 20*(j+1)
	// occurrences each, so every batch needs a bigger device than the
	// last. Event IDs cycle through the scenario's catalog.
	src := s.YELT.Occs
	tab := &yelt.Table{NumTrials: 60, Offsets: make([]int64, 61)}
	for trial := 0; trial < 60; trial++ {
		n := 20 * (trial/10 + 1)
		for i := 0; i < n; i++ {
			tab.Occs = append(tab.Occs, yelt.Occurrence{
				EventID:   src[(trial*31+i)%len(src)].EventID,
				DayOfYear: uint16(i % 365),
			})
		}
		tab.Offsets[trial+1] = int64(len(tab.Occs))
	}

	in := &Input{Source: growingSource{tab}, ELTs: s.ELTs, Portfolio: s.Portfolio}
	const tpb = 16
	ch := &Chunked{TrialsPerBlock: tpb}
	res, err := ch.Run(context.Background(), in, Config{BatchTrials: 10})
	if err != nil {
		t.Fatal(err)
	}

	fx, err := in.EnsureFlat()
	if err != nil {
		t.Fatal(err)
	}
	numRows := uint64(fx.Index().NumRows())

	// Every batch ran on the device: 6 batches x ceil(10/16) block.
	if got, want := ch.LastStats.Blocks, uint64(6); got != want {
		t.Fatalf("blocks = %d, want %d (growth dropped carried stats?)", got, want)
	}
	// The device grew at least once, so the resident vectors uploaded
	// more than once — but always in whole pairs.
	rt := ch.LastStats.ResidentTransferFloats
	if rt < 2*2*numRows {
		t.Fatalf("resident transfers = %d; expected re-upload after growth (>= %d)", rt, 4*numRows)
	}
	if rt%(2*numRows) != 0 {
		t.Fatalf("resident transfers = %d, not a whole number of vector pairs (%d)", rt, 2*numRows)
	}

	matRef := &Chunked{TrialsPerBlock: tpb}
	want, err := matRef.Run(context.Background(),
		&Input{YELT: tab, ELTs: s.ELTs, Portfolio: s.Portfolio}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, "growth agg", want.Portfolio.Agg, res.Portfolio.Agg)
	bitIdentical(t, "growth occmax", want.Portfolio.OccMax, res.Portfolio.OccMax)
}
