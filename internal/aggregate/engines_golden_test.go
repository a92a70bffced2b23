package aggregate

import (
	"context"
	"math"
	"testing"

	"repro/internal/layers"
	"repro/internal/lossindex"
	"repro/internal/synth"
)

// bitIdentical fails unless a and b hold the same float64 bit patterns:
// −0 is not +0, and a NaN matches only a NaN of the same bits. It is the
// package's one comparator; resultsBitIdentical applies it to every
// column of two results.
func bitIdentical(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: lengths %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: trial %d: %v (%#x) vs %v (%#x)", name, i, a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
		}
	}
}

// The indexed Sequential engine must reproduce the pre-refactor
// binary-search kernel bit-for-bit for the same (input, seed) — the
// draw-order guarantee the loss index was designed around — with
// sampling both on and off, including per-contract tables.
func TestGoldenIndexedMatchesLegacyLookup(t *testing.T) {
	s := buildScenario(t, synth.Small(21))
	for _, sampling := range []bool{false, true} {
		cfg := Config{Seed: 17, Sampling: sampling, PerContract: true}
		legacy, err := LegacyLookup{}.Run(context.Background(), input(s), cfg)
		if err != nil {
			t.Fatal(err)
		}
		indexed, err := Sequential{}.Run(context.Background(), input(s), cfg)
		if err != nil {
			t.Fatal(err)
		}
		bitIdentical(t, "agg", legacy.Portfolio.Agg, indexed.Portfolio.Agg)
		bitIdentical(t, "occmax", legacy.Portfolio.OccMax, indexed.Portfolio.OccMax)
		for ci := range legacy.PerContract {
			bitIdentical(t, "per-contract agg", legacy.PerContract[ci].Agg, indexed.PerContract[ci].Agg)
			bitIdentical(t, "per-contract occmax", legacy.PerContract[ci].OccMax, indexed.PerContract[ci].OccMax)
		}
	}
}

// Cross-engine golden test through the shared index path: Sequential
// and Parallel must be bit-identical (sampling on and off); the device
// engines must be bit-identical to the host on a single-contract
// occurrence-only book (where host and device fold losses in the same
// order) and agree to float tolerance on the general occurrence-only
// book (the device folds shares per event before the trial sweep, the
// host after — re-association only).
func TestGoldenCrossEngineSharedIndex(t *testing.T) {
	s := buildScenario(t, synth.Small(22))
	ix, err := lossindex.Build(s.ELTs, s.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	for _, sampling := range []bool{false, true} {
		cfg := Config{Seed: 23, Sampling: sampling}
		in := input(s)
		in.Index = ix // one index instance shared by every engine
		seq, err := Sequential{}.Run(context.Background(), in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		par, err := Parallel{}.Run(context.Background(), in, Config{Seed: 23, Sampling: sampling, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		bitIdentical(t, "seq-vs-par agg", seq.Portfolio.Agg, par.Portfolio.Agg)
		bitIdentical(t, "seq-vs-par occmax", seq.Portfolio.OccMax, par.Portfolio.OccMax)
	}

	// Device engines: occurrence-only book, expected mode.
	p := synth.Small(22)
	p.OccurrenceOnly = true
	occ := buildScenario(t, p)
	occIx, err := lossindex.Build(occ.ELTs, occ.Portfolio)
	if err != nil {
		t.Fatal(err)
	}
	occIn := input(occ)
	occIn.Index = occIx
	seq, err := Sequential{}.Run(context.Background(), occIn, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, naive := range []bool{false, true} {
		ch := &Chunked{Naive: naive}
		dev, err := ch.Run(context.Background(), occIn, Config{})
		if err != nil {
			t.Fatal(err)
		}
		tablesAlmostEqual(t, ch.Name()+" agg", seq.Portfolio.Agg, dev.Portfolio.Agg, 1e-9)
		tablesAlmostEqual(t, ch.Name()+" occmax", seq.Portfolio.OccMax, dev.Portfolio.OccMax, 1e-9)
	}

	// Single-contract occurrence-only book: host and device sum in the
	// same order, so the agreement tightens to bit-identical.
	single := &Input{
		YELT:      occ.YELT,
		ELTs:      occ.ELTs[:1],
		Portfolio: singleContractPortfolio(occ, 0),
	}
	seq1, err := Sequential{}.Run(context.Background(), single, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ch := &Chunked{}
	dev1, err := ch.Run(context.Background(), single, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, "single-contract device agg", seq1.Portfolio.Agg, dev1.Portfolio.Agg)
	bitIdentical(t, "single-contract device occmax", seq1.Portfolio.OccMax, dev1.Portfolio.OccMax)
}

// A book with never-binding reinstatement terms must still agree with
// the same book without terms.
func TestGoldenReinstatementsConsistency(t *testing.T) {
	s := buildScenario(t, synth.Small(24))
	cfg := Config{Seed: 31, Sampling: true}
	seq, err := Sequential{}.Run(context.Background(), input(s), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rres, _, err := runReinst(context.Background(), reinstInput(input(s), UnlimitedReinstatements(s.Portfolio)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Portfolio.Agg {
		if math.Abs(seq.Portfolio.Agg[i]-rres.Agg[i]) > 1e-9*(1+seq.Portfolio.Agg[i]) {
			t.Fatalf("trial %d: stateless %v vs unlimited reinstatements %v",
				i, seq.Portfolio.Agg[i], rres.Agg[i])
		}
	}
}

func singleContractPortfolio(s *synth.Scenario, i int) *layers.Portfolio {
	c := s.Portfolio.Contracts[i]
	c.ELTIndex = 0
	return &layers.Portfolio{Contracts: []layers.Contract{c}}
}
