package aggregate

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/lossindex"
	"repro/internal/synth"
)

func TestByContractMatchesSequentialExpectedMode(t *testing.T) {
	s := buildScenario(t, synth.Small(41))
	cfg := Config{}
	seq, err := Sequential{}.Run(context.Background(), input(s), cfg)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := ByContract{}.Run(context.Background(), input(s), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Portfolio.Agg {
		if math.Abs(seq.Portfolio.Agg[i]-bc.Portfolio.Agg[i]) > 1e-9*(1+seq.Portfolio.Agg[i]) {
			t.Fatalf("agg trial %d: %v vs %v", i, seq.Portfolio.Agg[i], bc.Portfolio.Agg[i])
		}
		if math.Abs(seq.Portfolio.OccMax[i]-bc.Portfolio.OccMax[i]) > 1e-9*(1+seq.Portfolio.OccMax[i]) {
			t.Fatalf("occmax trial %d: %v vs %v", i, seq.Portfolio.OccMax[i], bc.Portfolio.OccMax[i])
		}
	}
}

func TestByContractPerContractOutput(t *testing.T) {
	s := buildScenario(t, synth.Small(42))
	cfg := Config{PerContract: true}
	seq, err := Sequential{}.Run(context.Background(), input(s), cfg)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := ByContract{}.Run(context.Background(), input(s), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(bc.PerContract) != len(seq.PerContract) {
		t.Fatal("per-contract table counts differ")
	}
	for ci := range seq.PerContract {
		for trial := range seq.PerContract[ci].Agg {
			a := seq.PerContract[ci].Agg[trial]
			b := bc.PerContract[ci].Agg[trial]
			if math.Abs(a-b) > 1e-9*(1+a) {
				t.Fatalf("contract %d trial %d: %v vs %v", ci, trial, a, b)
			}
		}
	}
}

// eltScanMeans is the oracle for Flat.DenseMeansAll: every contract's
// dense row → mean-loss vector rebuilt from the contract's own ELT
// records, one index Row probe per record (the engine's construction
// before the flat layout existed).
func eltScanMeans(in *Input, idx *lossindex.Index) [][]float64 {
	out := make([][]float64, len(in.Portfolio.Contracts))
	for ci := range in.Portfolio.Contracts {
		c := &in.Portfolio.Contracts[ci]
		means := make([]float64, idx.NumRows())
		for _, r := range in.ELTs[c.ELTIndex].Records {
			if r.MeanLoss <= 0 {
				continue
			}
			if row := idx.Row(r.EventID); row >= 0 {
				means[row] = r.MeanLoss
			}
		}
		out[ci] = means
	}
	return out
}

// The dense mean vectors the engine projects from the packed
// lossindex.Flat columns must equal the ones re-scanned from each
// contract's ELT, and the engine over them must equal the oracle.
func TestByContractMeansFromFlatMatchELTScan(t *testing.T) {
	s := buildScenario(t, synth.Small(45))
	ix, err := lossindex.Build(s.ELTs, s.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := lossindex.Flatten(ix, s.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	in := &Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: ix, Flat: fx}
	fromFlat, fromELTs := fx.DenseMeansAll(), eltScanMeans(in, ix)
	for ci := range s.Portfolio.Contracts {
		bitIdentical(t, "dense means", fromELTs[ci], fromFlat[ci])
	}
	cfg := Config{PerContract: true}
	want, err := LegacyLookup{}.Run(context.Background(), input(s), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ByContract{}.Run(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resultsBitIdentical(t, "by-contract over projected means", want, got)
}

func TestByContractRefusesSampling(t *testing.T) {
	s := buildScenario(t, synth.Small(43))
	if _, err := (ByContract{}).Run(context.Background(), input(s), Config{Sampling: true}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("sampling mode should be refused (draw order differs): err = %v", err)
	}
}

func TestByContractCancellation(t *testing.T) {
	s := buildScenario(t, synth.Small(44))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (ByContract{}).Run(ctx, input(s), Config{}); err == nil {
		t.Fatal("cancelled run should error")
	}
}

// The batch-major streaming form must derive each trial exactly once —
// the shared per-batch cache that replaces the old
// once-per-contract-plus-occurrence-pass regeneration (for C contracts,
// (C+1)× the table's occurrences). Streamed() counting the table's
// occurrence count exactly once is the whole point of the restructure.
func TestByContractStreamingSingleGeneration(t *testing.T) {
	s := buildScenario(t, synth.Small(45))
	ix, err := lossindex.Build(s.ELTs, s.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := s.YELTGenerator()
	if err != nil {
		t.Fatal(err)
	}
	in := &Input{Source: gen, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: ix}
	cfg := Config{Workers: 3, BatchTrials: 97, PerContract: true}
	got, err := (ByContract{}).Run(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(s.YELT.Len()); gen.Streamed() != want {
		t.Fatalf("streamed %d occurrences, want exactly one generation pass (%d)", gen.Streamed(), want)
	}
	// And the single-pass restructure must not change results.
	want, err := (ByContract{}).Run(context.Background(),
		&Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: ix}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resultsBitIdentical(t, "by-contract single-pass", want, got)
}

// The decomposition ablation: by-trial vs by-contract parallelism on a
// book with few contracts (the common case — a portfolio has orders of
// magnitude fewer contracts than trials).
func BenchmarkByContractVsByTrial(b *testing.B) {
	s := benchScenario(b, false)
	in := &Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio}
	b.Run("by-trial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (Parallel{}).Run(context.Background(), in, Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("by-contract", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (ByContract{}).Run(context.Background(), in, Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
