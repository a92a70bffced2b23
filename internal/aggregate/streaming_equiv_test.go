package aggregate

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/layers"
	"repro/internal/lossindex"
	"repro/internal/synth"
	"repro/internal/yelt"
)

// The streaming equivalence suite: every engine must produce
// bit-identical results whether it consumes the materialized YELT or
// the fused Generator source, for every (sampling, seed, batch size)
// combination — including batch sizes that do not divide the trial
// count and batches larger than it. This is the correctness contract
// that makes streaming mode a pure memory/trial-count trade.

// equivCase is one engine × configuration cell of the matrix.
type equivCase struct {
	name     string
	engine   func() Engine // fresh engine per run (Chunked carries state)
	sampling []bool
	occOnly  bool // device engines need the occurrence-only book
	perCon   bool // request per-contract tables where supported
}

func equivMatrix() []equivCase {
	return []equivCase{
		{name: "sequential", engine: func() Engine { return Sequential{} }, sampling: []bool{false, true}, perCon: true},
		{name: "parallel", engine: func() Engine { return Parallel{} }, sampling: []bool{false, true}, perCon: true},
		{name: "mapreduce", engine: func() Engine { return MapReduce{SplitTrials: 643} }, sampling: []bool{false, true}, perCon: true},
		{name: "device-chunked", engine: func() Engine { return &Chunked{} }, sampling: []bool{false}, occOnly: true},
		{name: "device-naive", engine: func() Engine { return &Chunked{Naive: true} }, sampling: []bool{false}, occOnly: true},
	}
}

// equivBatchSizes exercises the batching edge cases against the
// 2000-trial synth.Small scenario: single-trial batches, two sizes
// that do not divide 2000, an exact divisor, and a batch larger than
// the whole trial count (one oversized read).
var equivBatchSizes = []int{1, 7, 500, 997, 4096}

func streamingInput(t *testing.T, s *synth.Scenario, ix *lossindex.Index) *Input {
	t.Helper()
	gen, err := s.YELTGenerator()
	if err != nil {
		t.Fatal(err)
	}
	return &Input{Source: gen, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: ix}
}

func resultsBitIdentical(t *testing.T, name string, want, got *Result) {
	t.Helper()
	bitIdentical(t, name+" agg", want.Portfolio.Agg, got.Portfolio.Agg)
	bitIdentical(t, name+" occmax", want.Portfolio.OccMax, got.Portfolio.OccMax)
	bitIdentical(t, name+" premium", want.Premium, got.Premium)
	if len(want.PerContract) != len(got.PerContract) {
		t.Fatalf("%s: per-contract tables %d vs %d", name, len(want.PerContract), len(got.PerContract))
	}
	for ci := range want.PerContract {
		bitIdentical(t, name+" per-contract agg", want.PerContract[ci].Agg, got.PerContract[ci].Agg)
		bitIdentical(t, name+" per-contract occmax", want.PerContract[ci].OccMax, got.PerContract[ci].OccMax)
	}
}

func TestStreamingEquivalenceAllEngines(t *testing.T) {
	base := buildScenario(t, synth.Small(41))
	pOcc := synth.Small(41)
	pOcc.OccurrenceOnly = true
	occ := buildScenario(t, pOcc)
	baseIx, err := lossindex.Build(base.ELTs, base.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	occIx, err := lossindex.Build(occ.ELTs, occ.Portfolio)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range equivMatrix() {
		s, ix := base, baseIx
		if tc.occOnly {
			s, ix = occ, occIx
		}
		for _, sampling := range tc.sampling {
			for _, seed := range []uint64{13, 977} {
				cfg := Config{Seed: seed, Sampling: sampling, PerContract: tc.perCon, Workers: 3}
				matIn := &Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: ix}
				want, err := tc.engine().Run(context.Background(), matIn, cfg)
				if err != nil {
					t.Fatalf("%s materialized: %v", tc.name, err)
				}
				for _, batch := range equivBatchSizes {
					scfg := cfg
					scfg.BatchTrials = batch
					got, err := tc.engine().Run(context.Background(), streamingInput(t, s, ix), scfg)
					if err != nil {
						t.Fatalf("%s streaming batch=%d: %v", tc.name, batch, err)
					}
					name := tc.name
					if sampling {
						name += "/sampling"
					}
					resultsBitIdentical(t, name, want, got)
				}
			}
		}
	}
}

// A book with reinstatement terms must stream identically too —
// including the per-trial premium column — with both binding and
// never-binding terms.
func TestStreamingEquivalenceReinstatements(t *testing.T) {
	s := buildScenario(t, synth.Small(43))
	ix, err := lossindex.Build(s.ELTs, s.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	binding := make([][]layers.ReinstatementTerms, len(s.Portfolio.Contracts))
	for ci, c := range s.Portfolio.Contracts {
		binding[ci] = make([]layers.ReinstatementTerms, len(c.Layers))
		for li := range c.Layers {
			binding[ci][li] = layers.ReinstatementTerms{Count: 1, PremiumRate: 0.05}
		}
	}
	for _, terms := range [][][]layers.ReinstatementTerms{UnlimitedReinstatements(s.Portfolio), binding} {
		for _, sampling := range []bool{false, true} {
			cfg := Config{Seed: 29, Sampling: sampling, Workers: 2}
			matIn := reinstInput(&Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: ix}, terms)
			want, err := Parallel{}.Run(context.Background(), matIn, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range equivBatchSizes {
				scfg := cfg
				scfg.BatchTrials = batch
				reinstBitIdentical(t, fmt.Sprintf("streaming batch=%d", batch), Parallel{}, reinstInput(streamingInput(t, s, ix), terms), scfg, want)
			}
		}
	}
}

// Streaming runs must actually deliver the bounded-memory promise:
// the tracked peak-resident bytes stay far below the materialized
// table footprint (and materialized runs report exactly that
// footprint).
func TestStreamingPeakResidentBytes(t *testing.T) {
	s := buildScenario(t, synth.Small(47))
	ix, err := lossindex.Build(s.ELTs, s.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	matIn := &Input{YELT: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio, Index: ix}
	mat, err := (Parallel{}).Run(context.Background(), matIn, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if mat.PeakResidentBytes != s.YELT.SizeBytes() {
		t.Fatalf("materialized peak %d != table %d", mat.PeakResidentBytes, s.YELT.SizeBytes())
	}
	str, err := (Parallel{}).Run(context.Background(), streamingInput(t, s, ix),
		Config{Workers: 2, BatchTrials: 50})
	if err != nil {
		t.Fatal(err)
	}
	if str.PeakResidentBytes <= 0 {
		t.Fatal("streaming run reported no resident bytes")
	}
	if str.PeakResidentBytes*4 >= s.YELT.SizeBytes() {
		t.Fatalf("streaming peak %d not well below table %d", str.PeakResidentBytes, s.YELT.SizeBytes())
	}
	bitIdentical(t, "peak-test agg", mat.Portfolio.Agg, str.Portfolio.Agg)
}

// A YELT used through the Source interface (materialized table, view
// batches) must equal the direct materialized path too — the third
// corner of the abstraction.
func TestMaterializedTableAsSource(t *testing.T) {
	s := buildScenario(t, synth.Small(49))
	cfg := Config{Seed: 5, Sampling: true, BatchTrials: 333}
	direct, err := Sequential{}.Run(context.Background(), input(s), cfg)
	if err != nil {
		t.Fatal(err)
	}
	viaSource, err := Sequential{}.Run(context.Background(),
		&Input{Source: s.YELT, ELTs: s.ELTs, Portfolio: s.Portfolio}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resultsBitIdentical(t, "table-as-source", direct, viaSource)
	if viaSource.PeakResidentBytes != s.YELT.SizeBytes() {
		t.Fatalf("table-as-source peak %d != table %d", viaSource.PeakResidentBytes, s.YELT.SizeBytes())
	}
}

// Streaming engines must honor cancellation mid-run like the
// materialized path does.
func TestStreamingCancellation(t *testing.T) {
	s := buildScenario(t, synth.Small(51))
	ix, err := lossindex.Build(s.ELTs, s.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (Sequential{}).Run(ctx, streamingInput(t, s, ix), Config{}); err == nil {
		t.Fatal("sequential streaming should honor cancellation")
	}
	if _, err := (Parallel{}).Run(ctx, streamingInput(t, s, ix), Config{}); err == nil {
		t.Fatal("parallel streaming should honor cancellation")
	}
}

// The legacy reference kernel is deliberately pinned to materialized
// inputs.
func TestLegacyRejectsStreaming(t *testing.T) {
	s := buildScenario(t, synth.Small(53))
	ix, err := lossindex.Build(s.ELTs, s.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (LegacyLookup{}).Run(context.Background(), streamingInput(t, s, ix), Config{}); err == nil {
		t.Fatal("legacy kernel should reject streaming inputs")
	}
}

func TestValidateSourceInput(t *testing.T) {
	s := buildScenario(t, synth.Small(55))
	gen, err := s.YELTGenerator()
	if err != nil {
		t.Fatal(err)
	}
	good := &Input{Source: gen, ELTs: s.ELTs, Portfolio: s.Portfolio}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	neither := &Input{ELTs: s.ELTs, Portfolio: s.Portfolio}
	if err := neither.Validate(); err == nil {
		t.Fatal("input with neither YELT nor Source should fail validation")
	}
	empty := &Input{YELT: &yelt.Table{}, ELTs: s.ELTs, Portfolio: s.Portfolio}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty trial table should fail validation")
	}
}
